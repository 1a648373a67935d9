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

// ParseText reconstructs a graph from the WriteText format. The result is
// verified before being returned.
func ParseText(src string) (*Graph, error) {
	p := &parser{
		dims:  map[string]symshape.DimID{},
		nodes: map[int]*Node{},
	}
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("graph: parse line %d: %w", i+1, err)
		}
	}
	if p.g == nil {
		return nil, fmt.Errorf("graph: parse: no graph header found")
	}
	if !p.closed {
		return nil, fmt.Errorf("graph: parse: missing closing brace")
	}
	if err := p.g.Verify(); err != nil {
		return nil, fmt.Errorf("graph: parsed graph invalid: %w", err)
	}
	return p.g, nil
}

type parser struct {
	g      *Graph
	dims   map[string]symshape.DimID
	nodes  map[int]*Node
	params []*Node
	closed bool
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "graph "):
		rest := strings.TrimPrefix(line, "graph ")
		name := strings.TrimSpace(strings.TrimSuffix(rest, "{"))
		p.g = New(name)
		return nil
	case line == "}":
		p.closed = true
		return nil
	case strings.HasPrefix(line, "dim "):
		return p.dimDecl(strings.TrimPrefix(line, "dim "))
	case strings.HasPrefix(line, "%"):
		return p.nodeDecl(line)
	case strings.HasPrefix(line, "return "):
		return p.returns(strings.TrimPrefix(line, "return "))
	}
	return fmt.Errorf("unrecognized line %q", line)
}

// dimRef resolves a dim token: an integer literal (static) or d<N>.
func (p *parser) dimRef(tok string) (symshape.DimID, error) {
	tok = strings.TrimSpace(tok)
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		if v < 0 {
			return symshape.Invalid, fmt.Errorf("negative dim literal %q", tok)
		}
		return p.g.Ctx.StaticDim(v), nil
	}
	d, ok := p.dims[tok]
	if !ok {
		return symshape.Invalid, fmt.Errorf("undeclared dim %q", tok)
	}
	return d, nil
}

func (p *parser) dimRefs(list string) ([]symshape.DimID, error) {
	var out []symshape.DimID
	for _, tok := range splitTop(list, ',') {
		d, err := p.dimRef(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// dimDecl parses "dN dynamic ..." or "dN = <def> ...".
func (p *parser) dimDecl(rest string) error {
	if p.g == nil {
		return fmt.Errorf("dim before graph header")
	}
	rest = strings.TrimSpace(rest)
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("bad dim declaration %q", rest)
	}
	name := rest[:sp]
	if _, dup := p.dims[name]; dup {
		return fmt.Errorf("duplicate dim %q", name)
	}
	body := strings.TrimSpace(rest[sp+1:])
	ctx := p.g.Ctx
	var d symshape.DimID
	var facts []string
	switch {
	case body == "dynamic" || strings.HasPrefix(body, "dynamic "):
		d = ctx.NewDim(name)
		facts = splitFactTokens(strings.TrimPrefix(body, "dynamic"))
	case strings.HasPrefix(body, "= "):
		def := strings.TrimSpace(body[2:])
		// The definition is fn(args) optionally followed by fact tokens;
		// find the closing paren of the definition.
		open := strings.IndexByte(def, '(')
		if open < 0 {
			return fmt.Errorf("bad dim definition %q", def)
		}
		closeIdx := matchParen(def, open)
		if closeIdx < 0 {
			return fmt.Errorf("unbalanced parens in %q", def)
		}
		fn := def[:open]
		args := def[open+1 : closeIdx]
		facts = splitFactTokens(def[closeIdx+1:])
		var ops []symshape.DimID
		if fn != "affine" {
			var err error
			ops, err = p.dimRefs(args)
			if err != nil {
				return err
			}
		}
		switch fn {
		case "product":
			d = ctx.DeclareProduct(name, ops)
		case "sum":
			d = ctx.DeclareSum(name, ops)
		case "quot":
			if len(ops) != 2 {
				return fmt.Errorf("quot wants 2 args")
			}
			denom, ok := ctx.StaticValue(ops[1])
			if !ok || denom <= 0 {
				return fmt.Errorf("quot denominator must be static and positive")
			}
			d = ctx.DeclareQuotient(name, ops[0], denom)
		case "affine":
			parts := splitTop(args, ',')
			if len(parts) != 3 {
				return fmt.Errorf("affine wants 3 args")
			}
			base, err := p.dimRef(parts[0])
			if err != nil {
				return err
			}
			scale, err1 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			off, err2 := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("affine scale/offset must be integer literals")
			}
			if v, ok := ctx.StaticValue(base); (ok || scale == 0) && scale*v+off < 0 {
				return fmt.Errorf("affine folds to a negative extent")
			}
			d = ctx.DeclareAffine(name, base, scale, off)
		default:
			return fmt.Errorf("unknown dim definition %q", fn)
		}
	default:
		return fmt.Errorf("bad dim declaration %q", rest)
	}
	for _, f := range facts {
		f = strings.ReplaceAll(f, " ", "")
		switch {
		case strings.HasPrefix(f, "range(") && strings.HasSuffix(f, ")"):
			parts := splitTop(f[len("range("):len(f)-1], ',')
			if len(parts) != 2 {
				return fmt.Errorf("bad range fact %q", f)
			}
			lo, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
			hi, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("bad range fact %q", f)
			}
			if hi < 0 {
				hi = symshape.Unbounded
			}
			ctx.DeclareRange(d, lo, hi)
		case strings.HasPrefix(f, "div(") && strings.HasSuffix(f, ")"):
			k, err := strconv.ParseInt(f[len("div("):len(f)-1], 10, 64)
			if err != nil || k <= 0 {
				return fmt.Errorf("bad div fact %q", f)
			}
			ctx.DeclareDivisible(d, k)
		case strings.HasPrefix(f, "likely(") && strings.HasSuffix(f, ")"):
			v, err := strconv.ParseInt(f[len("likely("):len(f)-1], 10, 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("bad likely fact %q", f)
			}
			ctx.DeclareLikely(d, v)
		default:
			return fmt.Errorf("unknown dim fact %q", f)
		}
	}
	p.dims[name] = d
	return nil
}

// nodeDecl parses "%N = op(...) attrs dtype[shape] data=..." (data= on
// constants only).
func (p *parser) nodeDecl(line string) error {
	if p.g == nil {
		return fmt.Errorf("node before graph header")
	}
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return fmt.Errorf("missing '=' in %q", line)
	}
	id, err := strconv.Atoi(strings.TrimPrefix(line[:eq], "%"))
	if err != nil {
		return fmt.Errorf("bad node id in %q", line)
	}
	rest := strings.TrimSpace(line[eq+3:])

	// Op name runs until '(' or whitespace.
	opEnd := strings.IndexAny(rest, "( ")
	if opEnd < 0 {
		return fmt.Errorf("bad node body %q", rest)
	}
	opName := rest[:opEnd]
	kind, ok := opByName(opName)
	if !ok {
		return fmt.Errorf("unknown op %q", opName)
	}
	rest = rest[opEnd:]

	// Operands.
	var inputs []*Node
	if strings.HasPrefix(rest, "(") {
		closeIdx := matchParen(rest, 0)
		if closeIdx < 0 {
			return fmt.Errorf("unbalanced operand list")
		}
		for _, tok := range splitTop(rest[1:closeIdx], ',') {
			tok = strings.TrimSpace(tok)
			oid, err := strconv.Atoi(strings.TrimPrefix(tok, "%"))
			if err != nil {
				return fmt.Errorf("bad operand %q", tok)
			}
			in, ok := p.nodes[oid]
			if !ok {
				return fmt.Errorf("operand %%%d not yet defined", oid)
			}
			inputs = append(inputs, in)
		}
		rest = strings.TrimSpace(rest[closeIdx+1:])
	} else {
		rest = strings.TrimSpace(rest)
	}

	// Attributes up to the dtype token; the dtype token is f32/i32/bool
	// immediately followed by '['.
	n := &Node{Kind: kind, Inputs: inputs}
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return fmt.Errorf("missing type in node %%%d", id)
		}
		if dt, rem, ok := leadingType(rest); ok {
			n.DType = dt
			rest = rem
			break
		}
		tokEnd := attrEnd(rest)
		tok := rest[:tokEnd]
		rest = rest[tokEnd:]
		if err := p.nodeAttr(n, tok); err != nil {
			return fmt.Errorf("node %%%d: %w", id, err)
		}
	}

	// Shape.
	if !strings.HasPrefix(rest, "[") {
		return fmt.Errorf("missing shape in node %%%d", id)
	}
	closeIdx := strings.IndexByte(rest, ']')
	if closeIdx < 0 {
		return fmt.Errorf("unterminated shape in node %%%d", id)
	}
	shapeSrc := rest[1:closeIdx]
	rest = strings.TrimSpace(rest[closeIdx+1:])
	if strings.TrimSpace(shapeSrc) != "" {
		dims, err := p.dimRefs(shapeSrc)
		if err != nil {
			return err
		}
		n.Shape = dims
	}

	// Constant payload.
	if kind == OpConstant {
		lit, err := parsePayload(n, rest, p.g.Ctx)
		if err != nil {
			return fmt.Errorf("constant %%%d: %w", id, err)
		}
		n.Lit = lit
	} else if rest != "" {
		return fmt.Errorf("trailing tokens %q in node %%%d", rest, id)
	}

	p.g.add(n)
	p.nodes[id] = n
	if kind == OpParameter {
		p.params = append(p.params, n)
	}
	return nil
}

// attrEnd finds the end of the next attribute token, respecting brackets
// and quotes (attributes contain no spaces outside quotes).
func attrEnd(s string) int {
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ' ':
			if depth == 0 && !inStr {
				return i
			}
		}
	}
	return len(s)
}

// leadingType matches a dtype token followed by '['.
func leadingType(s string) (tensor.DType, string, bool) {
	for _, c := range []struct {
		name string
		dt   tensor.DType
	}{{"f32[", tensor.F32}, {"i32[", tensor.I32}, {"bool[", tensor.Bool}} {
		if strings.HasPrefix(s, c.name) {
			return c.dt, s[len(c.name)-1:], true
		}
	}
	return 0, "", false
}

func (p *parser) nodeAttr(n *Node, tok string) error {
	kv := strings.SplitN(tok, "=", 2)
	if len(kv) != 2 {
		return fmt.Errorf("bad attribute %q", tok)
	}
	key, val := kv[0], kv[1]
	switch key {
	case "idx":
		v, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		n.ParamIndex = v
	case "name":
		v, err := strconv.Unquote(val)
		if err != nil {
			return err
		}
		n.Name = v
	case "cmp":
		n.CmpOp = val
	case "rkind":
		switch val {
		case "sum":
			n.Reduce.Kind = tensor.ReduceSum
		case "max":
			n.Reduce.Kind = tensor.ReduceMax
		case "min":
			n.Reduce.Kind = tensor.ReduceMin
		case "mean":
			n.Reduce.Kind = tensor.ReduceMean
		default:
			return fmt.Errorf("unknown reduce kind %q", val)
		}
	case "axes":
		xs, err := parseIntList(val)
		if err != nil {
			return err
		}
		n.Reduce.Axes = xs
	case "keep":
		n.Reduce.KeepDims = val == "true"
	case "perm":
		xs, err := parseIntList(val)
		if err != nil {
			return err
		}
		n.Perm = xs
	case "axis":
		v, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		n.Axis = v
	case "starts":
		xs, err := parseIntList(val)
		if err != nil {
			return err
		}
		n.Starts = xs
	case "sizes":
		xs, err := parseIntList(val)
		if err != nil {
			return err
		}
		n.Sizes = xs
	case "lo":
		xs, err := parseIntList(val)
		if err != nil {
			return err
		}
		n.PadLo = xs
	case "hi":
		xs, err := parseIntList(val)
		if err != nil {
			return err
		}
		n.PadHi = xs
	case "eps":
		v, err := strconv.ParseFloat(val, 32)
		if err != nil {
			return err
		}
		n.Eps = float32(v)
	case "transb":
		n.TransB = val == "true"
	case "to":
		switch val {
		case "f32":
			n.To = tensor.F32
		case "i32":
			n.To = tensor.I32
		case "bool":
			n.To = tensor.Bool
		default:
			return fmt.Errorf("unknown dtype %q", val)
		}
	default:
		return fmt.Errorf("unknown attribute %q", key)
	}
	return nil
}

func parseIntList(s string) ([]int, error) {
	s = strings.TrimPrefix(strings.TrimSuffix(s, "]"), "[")
	if strings.TrimSpace(s) == "" {
		return []int{}, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parsePayload reads a constant's data=[...] or data=b64:... payload using
// the node's (already parsed) dtype and shape.
func parsePayload(n *Node, src string, ctx *symshape.Context) (*tensor.Tensor, error) {
	shape := make([]int, len(n.Shape))
	for i, d := range n.Shape {
		v, ok := ctx.StaticValue(d)
		if !ok {
			return nil, fmt.Errorf("constant with dynamic shape")
		}
		shape[i] = int(v)
	}
	numel, ok := checkedNumel(shape, n.DType.Size())
	if !ok {
		return nil, fmt.Errorf("shape %v is too large for a constant", shape)
	}
	switch {
	case strings.HasPrefix(src, "data=b64:"):
		return parseB64Payload(n.DType, shape, numel, src[len("data=b64:"):])
	case strings.HasPrefix(src, "data=[") && strings.HasSuffix(src, "]"):
		return parseDecimalPayload(n.DType, shape, numel, src[len("data=["):len(src)-1])
	}
	return nil, fmt.Errorf("missing data payload")
}

// checkedNumel is the element count of shape, or false when the payload
// it describes (elemSize bytes per element) does not fit in an int.
func checkedNumel(shape []int, elemSize int) (int, bool) {
	n := 1
	for _, d := range shape {
		if d == 0 {
			return 0, true
		}
	}
	for _, d := range shape {
		if d < 0 || n > math.MaxInt/elemSize/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// strictB64 requires padding and zero unused bits in the last quantum.
var strictB64 = base64.StdEncoding.Strict()

// parseB64Payload decodes standard padded base64 of the little-endian
// element bytes. The body must be exactly as long as the declared shape
// encodes to, which is checked before anything is allocated, so a short
// file cannot make the parser allocate for a large declared shape.
// Strict decoding gives every payload one accepted spelling, so
// write(parse(text)) reproduces the text.
func parseB64Payload(dt tensor.DType, shape []int, numel int, body string) (*tensor.Tensor, error) {
	// Encoding never shrinks, so the first test keeps EncodedLen from
	// overflowing on a huge declared shape.
	nbytes := numel * dt.Size()
	if nbytes > len(body) || strictB64.EncodedLen(nbytes) != len(body) {
		return nil, fmt.Errorf("b64 payload of %d characters does not encode the %d bytes of shape %v", len(body), nbytes, shape)
	}
	raw, err := strictB64.DecodeString(body)
	if err != nil {
		return nil, fmt.Errorf("b64 payload: %w", err)
	}
	// The decoder skips '\r' (and '\n'), so a body of the right length can
	// still decode short.
	if len(raw) != nbytes {
		return nil, fmt.Errorf("b64 payload decodes to %d bytes, shape %v needs %d", len(raw), shape, nbytes)
	}
	switch dt {
	case tensor.F32:
		data := make([]float32, numel)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return tensor.FromF32(data, shape...), nil
	case tensor.I32:
		data := make([]int32, numel)
		for i := range data {
			data[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return tensor.FromI32(data, shape...), nil
	case tensor.Bool:
		data := make([]bool, numel)
		for i, b := range raw {
			if b > 1 {
				return nil, fmt.Errorf("bool element %d is byte %d, want 0 or 1", i, b)
			}
			data[i] = b == 1
		}
		return tensor.FromBool(data, shape...), nil
	}
	return nil, fmt.Errorf("unknown dtype")
}

// parseDecimalPayload reads a comma-separated decimal list.
func parseDecimalPayload(dt tensor.DType, shape []int, numel int, body string) (*tensor.Tensor, error) {
	var toks []string
	if strings.TrimSpace(body) != "" {
		toks = strings.Split(body, ",")
	}
	if len(toks) != numel {
		return nil, fmt.Errorf("payload has %d values for shape %v", len(toks), shape)
	}
	switch dt {
	case tensor.F32:
		data := make([]float32, len(toks))
		for i, t := range toks {
			v, err := strconv.ParseFloat(strings.TrimSpace(t), 32)
			if err != nil {
				return nil, err
			}
			data[i] = float32(v)
		}
		return tensor.FromF32(data, shape...), nil
	case tensor.I32:
		data := make([]int32, len(toks))
		for i, t := range toks {
			v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 32)
			if err != nil {
				return nil, err
			}
			data[i] = int32(v)
		}
		return tensor.FromI32(data, shape...), nil
	case tensor.Bool:
		data := make([]bool, len(toks))
		for i, t := range toks {
			data[i] = strings.TrimSpace(t) == "true"
		}
		return tensor.FromBool(data, shape...), nil
	}
	return nil, fmt.Errorf("unknown dtype")
}

func (p *parser) returns(rest string) error {
	var outs []*Node
	for _, tok := range strings.Split(rest, ",") {
		tok = strings.TrimSpace(tok)
		id, err := strconv.Atoi(strings.TrimPrefix(tok, "%"))
		if err != nil {
			return fmt.Errorf("bad return %q", tok)
		}
		n, ok := p.nodes[id]
		if !ok {
			return fmt.Errorf("return of undefined %%%d", id)
		}
		outs = append(outs, n)
	}
	p.g.SetOutputs(outs...)
	// Register parameters by declared index.
	p.g.Params = make([]*Node, len(p.params))
	for _, n := range p.params {
		if n.ParamIndex < 0 || n.ParamIndex >= len(p.params) {
			return fmt.Errorf("parameter index %d out of range", n.ParamIndex)
		}
		if p.g.Params[n.ParamIndex] != nil {
			return fmt.Errorf("duplicate parameter index %d", n.ParamIndex)
		}
		p.g.Params[n.ParamIndex] = n
	}
	return nil
}

// opByName inverts the op name table.
func opByName(name string) (OpKind, bool) {
	for k, n := range opNames {
		if n == name {
			return k, true
		}
	}
	return OpInvalid, false
}

// splitFactTokens splits whitespace-separated fact tokens, keeping each
// parenthesized group (which may contain spaces) intact.
func splitFactTokens(s string) []string {
	var out []string
	depth := 0
	start := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ' ', '\t':
			if depth == 0 {
				if start >= 0 {
					out = append(out, s[start:i])
					start = -1
				}
				continue
			}
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// matchParen returns the index of the ')' matching the '(' at open.
func matchParen(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// splitTop splits s on sep at paren/bracket depth zero.
func splitTop(s string, sep byte) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		default:
			if s[i] == sep && depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
