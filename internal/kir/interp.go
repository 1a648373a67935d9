package kir

import "fmt"

// Interpret executes the kernel AST directly — a deliberately naive
// tree-walking reference evaluator with map-based environments, used by the
// differential suites and fuzzer as the semantics oracle for the bytecode
// VM. It shares the scalar function tables, so agreement is bitwise.
func Interpret(k *Kernel, bufs [][]float32, dims []int) error {
	if len(bufs) != k.NumBuffers {
		return fmt.Errorf("kir: interpret %s: got %d buffers, want %d", k.Name, len(bufs), k.NumBuffers)
	}
	if len(dims) != len(k.DimNames) {
		return fmt.Errorf("kir: interpret %s: got %d dims, want %d", k.Name, len(dims), len(k.DimNames))
	}
	it := &interp{
		k:    k,
		bufs: bufs,
		dims: map[string]int{},
		ints: map[string]int{},
		flts: map[string]float32{},
	}
	for i, d := range k.DimNames {
		it.dims[d] = dims[i]
	}
	return it.stmts(k.Body)
}

type interp struct {
	k    *Kernel
	bufs [][]float32
	dims map[string]int
	ints map[string]int
	flts map[string]float32
}

func (it *interp) stmts(ss []Stmt) error {
	for _, s := range ss {
		if err := it.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (it *interp) stmt(s Stmt) error {
	switch s := s.(type) {
	case SLoop:
		n, err := it.intVal(s.Extent)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			it.ints[s.Var] = i
			if err := it.stmts(s.Body); err != nil {
				return err
			}
		}
		return nil
	case SSet:
		v, err := it.fltVal(s.Val)
		if err != nil {
			return err
		}
		it.flts[s.Var] = v
		return nil
	case SSetInt:
		v, err := it.intVal(s.Val)
		if err != nil {
			return err
		}
		it.ints[s.Var] = v
		return nil
	case SStore:
		idx, err := it.intVal(s.Idx)
		if err != nil {
			return err
		}
		v, err := it.fltVal(s.Val)
		if err != nil {
			return err
		}
		if s.Buf < 0 || s.Buf >= len(it.bufs) {
			return fmt.Errorf("kir: interpret %s: buffer %d out of range", it.k.Name, s.Buf)
		}
		it.bufs[s.Buf][idx] = v
		return nil
	case SStoreInt:
		idx, err := it.intVal(s.Idx)
		if err != nil {
			return err
		}
		v, err := it.intVal(s.Val)
		if err != nil {
			return err
		}
		if s.Buf < 0 || s.Buf >= len(it.bufs) {
			return fmt.Errorf("kir: interpret %s: buffer %d out of range", it.k.Name, s.Buf)
		}
		it.bufs[s.Buf][idx] = float32(v)
		return nil
	default:
		return fmt.Errorf("kir: interpret %s: unknown statement %T", it.k.Name, s)
	}
}

func (it *interp) intVal(e IntExpr) (int, error) {
	switch e := e.(type) {
	case IConst:
		return int(e), nil
	case IDim:
		v, ok := it.dims[string(e)]
		if !ok {
			return 0, fmt.Errorf("kir: interpret %s: unknown dim %q", it.k.Name, string(e))
		}
		return v, nil
	case IVar:
		v, ok := it.ints[string(e)]
		if !ok {
			return 0, fmt.Errorf("kir: interpret %s: undefined int var %q", it.k.Name, string(e))
		}
		return v, nil
	case ILoad:
		if e.Buf < 0 || e.Buf >= len(it.bufs) {
			return 0, fmt.Errorf("kir: interpret %s: buffer %d out of range", it.k.Name, e.Buf)
		}
		idx, err := it.intVal(e.Idx)
		if err != nil {
			return 0, err
		}
		return int(it.bufs[e.Buf][idx]), nil
	case IBin:
		a, err := it.intVal(e.A)
		if err != nil {
			return 0, err
		}
		b, err := it.intVal(e.B)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case IAdd:
			return a + b, nil
		case ISub:
			return a - b, nil
		case IMul:
			return a * b, nil
		case IDiv:
			return a / b, nil
		case IMod:
			return a % b, nil
		case IMin:
			if a < b {
				return a, nil
			}
			return b, nil
		}
		return 0, fmt.Errorf("kir: interpret %s: unknown int op %d", it.k.Name, e.Op)
	default:
		return 0, fmt.Errorf("kir: interpret %s: unknown int expr %T", it.k.Name, e)
	}
}

func (it *interp) fltVal(e Expr) (float32, error) {
	switch e := e.(type) {
	case FConst:
		return float32(e), nil
	case FLoad:
		if e.Buf < 0 || e.Buf >= len(it.bufs) {
			return 0, fmt.Errorf("kir: interpret %s: buffer %d out of range", it.k.Name, e.Buf)
		}
		idx, err := it.intVal(e.Idx)
		if err != nil {
			return 0, err
		}
		return it.bufs[e.Buf][idx], nil
	case FLocal:
		v, ok := it.flts[string(e)]
		if !ok {
			return 0, fmt.Errorf("kir: interpret %s: undefined f32 local %q", it.k.Name, string(e))
		}
		return v, nil
	case FUn:
		fn, ok := unaryFuncs[e.Fn]
		if !ok {
			return 0, fmt.Errorf("kir: interpret %s: unknown unary fn %q", it.k.Name, e.Fn)
		}
		x, err := it.fltVal(e.X)
		if err != nil {
			return 0, err
		}
		return fn(x), nil
	case FBin:
		fn, ok := binaryFuncs[e.Fn]
		if !ok {
			return 0, fmt.Errorf("kir: interpret %s: unknown binary fn %q", it.k.Name, e.Fn)
		}
		a, err := it.fltVal(e.A)
		if err != nil {
			return 0, err
		}
		b, err := it.fltVal(e.B)
		if err != nil {
			return 0, err
		}
		return fn(a, b), nil
	case FCmp:
		a, err := it.fltVal(e.A)
		if err != nil {
			return 0, err
		}
		b, err := it.fltVal(e.B)
		if err != nil {
			return 0, err
		}
		var p bool
		switch e.Op {
		case "lt":
			p = a < b
		case "le":
			p = a <= b
		case "gt":
			p = a > b
		case "ge":
			p = a >= b
		case "eq":
			p = a == b
		case "ne":
			p = a != b
		default:
			return 0, fmt.Errorf("kir: interpret %s: unknown compare op %q", it.k.Name, e.Op)
		}
		if p {
			return 1, nil
		}
		return 0, nil
	case FSel:
		p, err := it.fltVal(e.P)
		if err != nil {
			return 0, err
		}
		if p != 0 {
			return it.fltVal(e.A)
		}
		return it.fltVal(e.B)
	case FCastInt:
		x, err := it.intVal(e.X)
		if err != nil {
			return 0, err
		}
		return float32(x), nil
	default:
		return 0, fmt.Errorf("kir: interpret %s: unknown expr %T", it.k.Name, e)
	}
}
