package kir

import (
	"fmt"
	"strings"
)

// String renders the kernel program as indented pseudo-code — the
// disassembly the compiler driver shows for generated kernels.
//
//	kernel row_g0(s1, s3) buffers=3 {
//	  for r in 0..($s1 * $s3) {
//	    acc = 0
//	    ...
//	  }
//	}
func (k *Kernel) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s(%s) buffers=%d {\n", k.Name, strings.Join(k.DimNames, ", "), k.NumBuffers)
	writeStmts(&sb, k.Body, 1)
	sb.WriteString("}\n")
	return sb.String()
}

func writeStmts(sb *strings.Builder, ss []Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range ss {
		switch s := s.(type) {
		case SLoop:
			fmt.Fprintf(sb, "%sfor %s in 0..%s {\n", indent, s.Var, s.Extent)
			writeStmts(sb, s.Body, depth+1)
			fmt.Fprintf(sb, "%s}\n", indent)
		case SSet:
			fmt.Fprintf(sb, "%s%s = %s\n", indent, s.Var, s.Val)
		case SSetInt:
			fmt.Fprintf(sb, "%s%s := %s\n", indent, s.Var, s.Val)
		case SStore:
			fmt.Fprintf(sb, "%sb%d[%s] = %s\n", indent, s.Buf, s.Idx, s.Val)
		case SStoreInt:
			fmt.Fprintf(sb, "%sb%d[%s] = f32(%s)\n", indent, s.Buf, s.Idx, s.Val)
		default:
			fmt.Fprintf(sb, "%s<unknown stmt %T>\n", indent, s)
		}
	}
}

// Source exposes the source of a compiled kernel: the AST when the program
// was compiled in this process, else (a program read from an engine
// image) its bytecode disassembly.
func (cp *Compiled) Source() string {
	if cp.kernel == nil {
		return cp.Disassemble()
	}
	return cp.kernel.String()
}

// opNames mirrors the opcode constants in bytecode.go for disassembly.
var opNames = [...]string{
	opNop:    "nop",
	opIConst: "iconst", opIDim: "idim", opIMov: "imov",
	opIAdd: "iadd", opISub: "isub", opIMul: "imul", opIDiv: "idiv",
	opIMod: "imod", opIMin: "imin",
	opIAddImm: "iaddi", opIMulImm: "imuli", opIMulAdd: "imuladd",
	opILoad:  "iload",
	opFConst: "fconst", opFMov: "fmov", opFLoad: "fload",
	opFAdd: "fadd", opFSub: "fsub", opFMul: "fmul", opFDiv: "fdiv",
	opFMax: "fmax", opFMin: "fmin", opFUn: "fun", opFBin: "fbin",
	opFCmpLT: "fcmplt", opFCmpLE: "fcmple", opFCmpGT: "fcmpgt",
	opFCmpGE: "fcmpge", opFCmpEQ: "fcmpeq", opFCmpNE: "fcmpne",
	opFCastInt: "fcasti",
	opStore:    "store", opStoreInt: "storei",
	opJump: "jump", opJumpIfZ: "jz", opLoopHead: "loop.head", opLoopTail: "loop.tail",
	opRowCopy: "row.copy", opRowMap1: "row.map1", opRowZip: "row.zip",
	opRowZipSR: "row.zipsr", opRowZipSL: "row.zipsl",
	opRowMapZipSR: "row.mapzipsr", opRowMapZipSL: "row.mapzipsl",
	opRowZip2S: "row.zip2s", opRowReduce: "row.reduce",
	opRowMapZip: "row.mapzip", opRowFill: "row.fill", opRowGathS: "row.gaths",
	opRowFRedSR: "row.fredsr", opRowFRedSL: "row.fredsl",
	opRowTmp: "row.tmp",
}

// Disassemble renders the compiled bytecode program, one instruction per
// line — the executable mirror of the AST printer, shown by trace/debug
// output and differential-test failures.
func (cp *Compiled) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; kernel %s: %d instrs, %d superinstructions, %d int regs, %d f32 regs",
		cp.name, len(cp.prog.code), cp.prog.supers, cp.nInts, cp.nFloats)
	sb.WriteByte('\n')
	for pc, in := range cp.prog.code {
		fmt.Fprintf(&sb, "%4d  %s\n", pc, formatInstr(in))
	}
	return sb.String()
}

// formatInstr renders one instruction with operands typed per opcode:
// iN/fN are registers, bN buffers, dN dim slots, @N jump targets.
func formatInstr(in instr) string {
	n := opNames[in.op]
	switch in.op {
	case opNop:
		return n
	case opIConst:
		return fmt.Sprintf("%-12s i%d = %d", n, in.a, in.b)
	case opIDim:
		return fmt.Sprintf("%-12s i%d = dim%d", n, in.a, in.b)
	case opIMov:
		return fmt.Sprintf("%-12s i%d = i%d", n, in.a, in.b)
	case opIAdd, opISub, opIMul, opIDiv, opIMod, opIMin:
		return fmt.Sprintf("%-12s i%d = i%d, i%d", n, in.a, in.b, in.c)
	case opIAddImm, opIMulImm:
		return fmt.Sprintf("%-12s i%d = i%d, %d", n, in.a, in.b, in.c)
	case opIMulAdd:
		return fmt.Sprintf("%-12s i%d = i%d*i%d + i%d", n, in.a, in.b, in.c, in.d)
	case opILoad:
		return fmt.Sprintf("%-12s i%d = b%d[i%d]", n, in.a, in.b, in.c)
	case opFConst:
		return fmt.Sprintf("%-12s f%d = %g", n, in.a, in.fimm)
	case opFMov:
		return fmt.Sprintf("%-12s f%d = f%d", n, in.a, in.b)
	case opFLoad:
		return fmt.Sprintf("%-12s f%d = b%d[i%d]", n, in.a, in.b, in.c)
	case opFAdd, opFSub, opFMul, opFDiv, opFMax, opFMin,
		opFCmpLT, opFCmpLE, opFCmpGT, opFCmpGE, opFCmpEQ, opFCmpNE:
		return fmt.Sprintf("%-12s f%d = f%d, f%d", n, in.a, in.b, in.c)
	case opFUn:
		return fmt.Sprintf("%-12s f%d = %s(f%d)", n, in.a, unaryNames[in.b], in.c)
	case opFBin:
		return fmt.Sprintf("%-12s f%d = %s(f%d, f%d)", n, in.a, binaryNames[in.b], in.c, in.d)
	case opFCastInt:
		return fmt.Sprintf("%-12s f%d = i%d", n, in.a, in.b)
	case opStore:
		return fmt.Sprintf("%-12s b%d[i%d] = f%d", n, in.a, in.b, in.c)
	case opStoreInt:
		return fmt.Sprintf("%-12s b%d[i%d] = i%d", n, in.a, in.b, in.c)
	case opJump:
		return fmt.Sprintf("%-12s @%d", n, in.a)
	case opJumpIfZ:
		return fmt.Sprintf("%-12s f%d, @%d", n, in.a, in.b)
	case opLoopHead:
		return fmt.Sprintf("%-12s i%d >= i%d -> @%d", n, in.a, in.b, in.c)
	case opLoopTail:
		return fmt.Sprintf("%-12s i%d++ < i%d -> @%d", n, in.a, in.b, in.c)
	case opRowCopy:
		return fmt.Sprintf("%-12s b%d[i%d:] = b%d[i%d:] n=i%d", n, in.a, in.d, in.b, in.d+1, in.e)
	case opRowMap1:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(b%d[i%d:]) n=i%d",
			n, in.a, in.d, unaryNames[in.g], in.b, in.d+1, in.e)
	case opRowZip:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(b%d[i%d:], b%d[i%d:]) n=i%d",
			n, in.a, in.d, binaryNames[in.g], in.b, in.d+1, in.c, in.d+2, in.e)
	case opRowZipSR:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(b%d[i%d:], f%d) n=i%d",
			n, in.a, in.d, binaryNames[in.g], in.b, in.d+1, in.c, in.e)
	case opRowZipSL:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(f%d, b%d[i%d:]) n=i%d",
			n, in.a, in.d, binaryNames[in.g], in.c, in.b, in.d+1, in.e)
	case opRowMapZipSR:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(%s(b%d[i%d:], f%d)) n=i%d",
			n, in.a, in.d, unaryNames[in.g>>8], binaryNames[in.g&0xff], in.b, in.d+1, in.c, in.e)
	case opRowMapZipSL:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(%s(f%d, b%d[i%d:])) n=i%d",
			n, in.a, in.d, unaryNames[in.g>>8], binaryNames[in.g&0xff], in.c, in.b, in.d+1, in.e)
	case opRowZip2S:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(%s(b%d[i%d:], f%d), f%d) n=i%d",
			n, in.a, in.d, binaryNames[in.g>>8], binaryNames[in.g&0xff], in.b, in.d+1, in.c, in.c+1, in.e)
	case opRowMapZip:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(%s(b%d[i%d:], b%d[i%d:])) n=i%d",
			n, in.a, in.d, unaryNames[in.g>>8], binaryNames[in.g&0xff], in.b, in.d+1, in.c, in.d+2, in.e)
	case opRowFill:
		return fmt.Sprintf("%-12s b%d[i%d:] = f%d n=i%d", n, in.a, in.d, in.c, in.e)
	case opRowGathS:
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(b%d[i%d + k*i%d]) n=i%d",
			n, in.a, in.d, unaryNames[in.g], in.b, in.d+1, in.c, in.e)
	case opRowFRedSR, opRowFRedSL:
		inner := fmt.Sprintf("b%d[i%d:]", in.b, in.d+1)
		if bin := in.g & 0xff; bin != binNoneIdx {
			if in.op == opRowFRedSL {
				inner = fmt.Sprintf("%s(f%d, %s)", binaryNames[bin], in.c&0xffff, inner)
			} else {
				inner = fmt.Sprintf("%s(%s, f%d)", binaryNames[bin], inner, in.c&0xffff)
			}
		}
		return fmt.Sprintf("%-12s b%d[i%d:] = %s(%s); f%d = fold %s n=i%d",
			n, in.a, in.d, unaryNames[(in.g>>8)&0xff], inner, in.c>>16, binaryNames[in.g>>16], in.e)
	case opRowReduce:
		return fmt.Sprintf("%-12s f%d = fold %s b%d[i%d:] n=i%d",
			n, in.a, binaryNames[in.g], in.b, in.c, in.d)
	case opRowTmp:
		return fmt.Sprintf("%-12s b%d = t%d, len >= %d", n, in.a, in.b, in.e)
	}
	return fmt.Sprintf("%-12s a=%d b=%d c=%d d=%d e=%d g=%d", n, in.a, in.b, in.c, in.d, in.e, in.g)
}
