package graph

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"godisc/internal/symshape"
	"godisc/internal/tensor"
)

// This file implements the textual serialization of graphs: WriteText
// renders a graph (including the symbolic dimension declarations and
// constant payloads) and ParseText reconstructs it. The format is the
// interchange used by the compiler driver and enables golden tests; the
// round-trip invariant (parse(write(g)) evaluates identically and has the
// same symbolic signature) is property-tested.
//
// Example:
//
//	graph mlp {
//	  dim d0 dynamic range(1, 64) div(4)
//	  dim d1 = product(d0, 16)
//	  %0 = parameter idx=0 name="x" f32[d0, 16]
//	  %1 = constant f32[2] data=[1, 2]
//	  %2 = add(%0, %1) f32[d0, 16]
//	  return %2
//	}

// decimalMaxElems is the largest constant WriteText renders as a decimal
// list. Larger payloads are written as data=b64:<payload>: standard padded
// base64 of the little-endian element bytes, which parses several times
// faster than decimal floats and is bit-exact for every value, NaN
// payloads included.
const decimalMaxElems = 16

// WriteText serializes g.
func WriteText(g *Graph) string { return writeText(g, false) }

// writeText serializes g; decimal forces every constant payload into the
// decimal list form, whatever its size.
func writeText(g *Graph, decimal bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s {\n", sanitizeName(g.Name))
	order := g.Toposort()

	// Collect every dim reachable from node shapes, transitively through
	// derived-dimension operands, then emit declarations in dependency
	// order. Derived dims whose definitions are mutually recursive (a dim
	// unified with a product of its own quotient, as SplitDim creates on
	// dynamic dims) degrade to plain dynamic declarations; see the
	// package documentation for this serialization limitation.
	var dims []symshape.DimID
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := map[symshape.DimID]int{}
	degraded := map[symshape.DimID]bool{}
	var visit func(d symshape.DimID)
	visit = func(d symshape.DimID) {
		r := g.Ctx.Root(d)
		if state[r] == black {
			return
		}
		if state[r] == gray {
			// Cycle: the ancestor currently being defined references
			// itself through this chain (SameConv1D unifies a dim with
			// an affine of a sum of itself). The ancestor degrades to a
			// plain dynamic declaration, cutting the cycle while keeping
			// this dim's definition evaluable from it.
			degraded[r] = true
			return
		}
		state[r] = gray
		desc := g.Ctx.Describe(r)
		for _, op := range desc.Operands {
			visit(op)
		}
		state[r] = black
		if desc.Kind != symshape.KindStatic {
			dims = append(dims, r)
		}
	}
	// Parameters are part of the graph's ABI even when unreachable from
	// the outputs (a model may ignore an input); emit them all.
	for _, pn := range g.Params {
		for _, d := range pn.Shape {
			visit(d)
		}
	}
	for _, n := range order {
		for _, d := range n.Shape {
			visit(d)
		}
	}
	// Degraded (cycle-cut) dims come first: they are plain dynamic
	// declarations that later definitions may reference.
	for _, d := range dims {
		if degraded[d] {
			writeDimDecl(&sb, g.Ctx, d, true)
		}
	}
	for _, d := range dims {
		if !degraded[d] {
			writeDimDecl(&sb, g.Ctx, d, false)
		}
	}

	emitted := map[*Node]bool{}
	for _, pn := range g.Params {
		writeNode(&sb, g.Ctx, pn, decimal)
		emitted[pn] = true
	}
	for _, n := range order {
		if emitted[n] {
			continue
		}
		writeNode(&sb, g.Ctx, n, decimal)
	}
	outs := make([]string, len(g.Outputs))
	for i, o := range g.Outputs {
		outs[i] = fmt.Sprintf("%%%d", o.ID)
	}
	fmt.Fprintf(&sb, "  return %s\n}\n", strings.Join(outs, ", "))
	return sb.String()
}

func sanitizeName(s string) string {
	if s == "" {
		return "g"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}

func dimRef(ctx *symshape.Context, d symshape.DimID) string {
	if v, ok := ctx.StaticValue(d); ok {
		return strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("d%d", ctx.Root(d))
}

func writeDimDecl(sb *strings.Builder, ctx *symshape.Context, d symshape.DimID, degrade bool) {
	desc := ctx.Describe(d)
	if degrade {
		desc.Kind = symshape.KindDynamic
	}
	fmt.Fprintf(sb, "  dim d%d", ctx.Root(d))
	switch desc.Kind {
	case symshape.KindDynamic:
		sb.WriteString(" dynamic")
	case symshape.KindProduct:
		sb.WriteString(" = product(")
		writeDimOperands(sb, ctx, desc.Operands)
		sb.WriteString(")")
	case symshape.KindSum:
		sb.WriteString(" = sum(")
		writeDimOperands(sb, ctx, desc.Operands)
		sb.WriteString(")")
	case symshape.KindQuotient:
		fmt.Fprintf(sb, " = quot(%s, %d)", dimRef(ctx, desc.Operands[0]), desc.Denom)
	case symshape.KindAffine:
		fmt.Fprintf(sb, " = affine(%s, %d, %d)", dimRef(ctx, desc.Operands[0]), desc.Scale, desc.Offset)
	}
	if desc.Lo > 1 || desc.Hi < symshape.Unbounded {
		hi := desc.Hi
		if hi >= symshape.Unbounded {
			hi = -1
		}
		fmt.Fprintf(sb, " range(%d,%d)", desc.Lo, hi)
	}
	if desc.Divisor > 1 {
		fmt.Fprintf(sb, " div(%d)", desc.Divisor)
	}
	if desc.Likely > 0 {
		fmt.Fprintf(sb, " likely(%d)", desc.Likely)
	}
	sb.WriteString("\n")
}

func writeDimOperands(sb *strings.Builder, ctx *symshape.Context, ops []symshape.DimID) {
	for i, op := range ops {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(dimRef(ctx, op))
	}
}

func writeShape(sb *strings.Builder, ctx *symshape.Context, s symshape.Shape) {
	sb.WriteString("[")
	for i, d := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(dimRef(ctx, d))
	}
	sb.WriteString("]")
}

func writeNode(sb *strings.Builder, ctx *symshape.Context, n *Node, decimal bool) {
	fmt.Fprintf(sb, "  %%%d = %s", n.ID, n.Kind)
	if len(n.Inputs) > 0 {
		sb.WriteString("(")
		for i, in := range n.Inputs {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "%%%d", in.ID)
		}
		sb.WriteString(")")
	}
	switch n.Kind {
	case OpParameter:
		fmt.Fprintf(sb, " idx=%d name=%q", n.ParamIndex, n.Name)
	case OpCompare:
		fmt.Fprintf(sb, " cmp=%s", n.CmpOp)
	case OpReduce:
		fmt.Fprintf(sb, " rkind=%s axes=%s keep=%t", n.Reduce.Kind, intList(n.Reduce.Axes), n.Reduce.KeepDims)
	case OpTranspose:
		fmt.Fprintf(sb, " perm=%s", intList(n.Perm))
	case OpConcat:
		fmt.Fprintf(sb, " axis=%d", n.Axis)
	case OpSlice:
		fmt.Fprintf(sb, " starts=%s sizes=%s", intList(n.Starts), intList(n.Sizes))
	case OpPad:
		fmt.Fprintf(sb, " lo=%s hi=%s", intList(n.PadLo), intList(n.PadHi))
	case OpLayerNorm:
		fmt.Fprintf(sb, " eps=%s", formatF32(n.Eps))
	case OpConvert:
		fmt.Fprintf(sb, " to=%s", n.To)
	case OpMatMul:
		if n.TransB {
			sb.WriteString(" transb=true")
		}
	}
	sb.WriteString(" ")
	sb.WriteString(n.DType.String())
	writeShape(sb, ctx, n.Shape)
	if n.Kind == OpConstant {
		if decimal || n.Lit.Numel() <= decimalMaxElems {
			writeDecimalPayload(sb, n.Lit)
		} else {
			sb.WriteString(" data=b64:")
			sb.WriteString(base64.StdEncoding.EncodeToString(payloadBytes(n.Lit)))
		}
	}
	sb.WriteString("\n")
}

func writeDecimalPayload(sb *strings.Builder, lit *tensor.Tensor) {
	sb.WriteString(" data=[")
	for i := 0; i < lit.Numel(); i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch lit.DType() {
		case tensor.F32:
			sb.WriteString(formatF32(lit.F32()[i]))
		case tensor.I32:
			fmt.Fprintf(sb, "%d", lit.I32()[i])
		case tensor.Bool:
			fmt.Fprintf(sb, "%t", lit.Bools()[i])
		}
	}
	sb.WriteString("]")
}

// payloadBytes lays a constant out as the b64 form stores it: 4
// little-endian bytes per f32 or i32 element, one byte (0 or 1) per bool.
func payloadBytes(lit *tensor.Tensor) []byte {
	raw := make([]byte, 0, lit.Bytes())
	switch lit.DType() {
	case tensor.F32:
		for _, v := range lit.F32() {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
	case tensor.I32:
		for _, v := range lit.I32() {
			raw = binary.LittleEndian.AppendUint32(raw, uint32(v))
		}
	case tensor.Bool:
		for _, v := range lit.Bools() {
			if v {
				raw = append(raw, 1)
			} else {
				raw = append(raw, 0)
			}
		}
	}
	return raw
}

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// formatF32 renders a float32 with exact round-trip.
func formatF32(v float32) string {
	return strconv.FormatFloat(float64(v), 'g', -1, 32)
}
