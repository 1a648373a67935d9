package kir

// The bytecode VM: one tight dispatch loop over the flat register file.
// exec performs zero allocations once a frame's row temporaries have grown
// to the sweeps' extents; all state lives in the pooled Frame and the
// caller's buffers. Superinstruction cases run whole contiguous rows
// per dispatch, with the hottest scalar functions open-coded so the inner
// loops contain no indirect calls.

func (p *program) exec(f *Frame) {
	code := p.code
	ints := f.ints
	floats := f.floats
	bufs := f.bufs
	dims := f.dims
	for pc := 0; pc < len(code); {
		i := &code[pc]
		switch i.op {
		case opIConst:
			ints[i.a] = int(i.b)
		case opIDim:
			ints[i.a] = dims[i.b]
		case opIMov:
			ints[i.a] = ints[i.b]
		case opIAdd:
			ints[i.a] = ints[i.b] + ints[i.c]
		case opISub:
			ints[i.a] = ints[i.b] - ints[i.c]
		case opIMul:
			ints[i.a] = ints[i.b] * ints[i.c]
		case opIDiv:
			ints[i.a] = ints[i.b] / ints[i.c]
		case opIMod:
			ints[i.a] = ints[i.b] % ints[i.c]
		case opIMin:
			x, y := ints[i.b], ints[i.c]
			if y < x {
				x = y
			}
			ints[i.a] = x
		case opIAddImm:
			ints[i.a] = ints[i.b] + int(i.c)
		case opIMulImm:
			ints[i.a] = ints[i.b] * int(i.c)
		case opIMulAdd:
			ints[i.a] = ints[i.b]*ints[i.c] + ints[i.d]
		case opILoad:
			ints[i.a] = int(bufs[i.b][ints[i.c]])
		case opFConst:
			floats[i.a] = i.fimm
		case opFMov:
			floats[i.a] = floats[i.b]
		case opFLoad:
			floats[i.a] = bufs[i.b][ints[i.c]]
		case opFAdd:
			floats[i.a] = floats[i.b] + floats[i.c]
		case opFSub:
			floats[i.a] = floats[i.b] - floats[i.c]
		case opFMul:
			floats[i.a] = floats[i.b] * floats[i.c]
		case opFDiv:
			floats[i.a] = floats[i.b] / floats[i.c]
		case opFMax:
			// FnMax semantics: a > b ? a : b (NaN falls through to b).
			x, y := floats[i.b], floats[i.c]
			if x > y {
				floats[i.a] = x
			} else {
				floats[i.a] = y
			}
		case opFMin:
			x, y := floats[i.b], floats[i.c]
			if x < y {
				floats[i.a] = x
			} else {
				floats[i.a] = y
			}
		case opFUn:
			floats[i.a] = unaryTable[i.b](floats[i.c])
		case opFBin:
			floats[i.a] = binaryTable[i.b](floats[i.c], floats[i.d])
		case opFCmpLT:
			floats[i.a] = b2f(floats[i.b] < floats[i.c])
		case opFCmpLE:
			floats[i.a] = b2f(floats[i.b] <= floats[i.c])
		case opFCmpGT:
			floats[i.a] = b2f(floats[i.b] > floats[i.c])
		case opFCmpGE:
			floats[i.a] = b2f(floats[i.b] >= floats[i.c])
		case opFCmpEQ:
			floats[i.a] = b2f(floats[i.b] == floats[i.c])
		case opFCmpNE:
			floats[i.a] = b2f(floats[i.b] != floats[i.c])
		case opFCastInt:
			floats[i.a] = float32(ints[i.b])
		case opStore:
			bufs[i.a][ints[i.b]] = floats[i.c]
		case opStoreInt:
			bufs[i.a][ints[i.b]] = float32(ints[i.c])
		case opJump:
			pc = int(i.a)
			continue
		case opJumpIfZ:
			if floats[i.a] == 0 {
				pc = int(i.b)
				continue
			}
		case opLoopHead:
			if ints[i.a] >= ints[i.b] {
				pc = int(i.c)
				continue
			}
		case opLoopTail:
			if t := ints[i.a] + 1; t < ints[i.b] {
				ints[i.a] = t
				pc = int(i.c)
				continue
			}
		case opRowCopy:
			if n := ints[i.e]; n > 0 {
				copy(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n])
			}
		case opRowMap1:
			if n := ints[i.e]; n > 0 {
				rowMap1(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n], int(i.g))
			}
		case opRowZip:
			if n := ints[i.e]; n > 0 {
				rowZip(bufs[i.a][ints[i.d]:ints[i.d]+n],
					bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					bufs[i.c][ints[i.d+2]:ints[i.d+2]+n], int(i.g))
			}
		case opRowZipSR:
			if n := ints[i.e]; n > 0 {
				rowZipS(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c], int(i.g), false)
			}
		case opRowZipSL:
			if n := ints[i.e]; n > 0 {
				rowZipS(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c], int(i.g), true)
			}
		case opRowMapZipSR:
			if n := ints[i.e]; n > 0 {
				rowMapZipS(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c], int(i.g), false)
			}
		case opRowMapZipSL:
			if n := ints[i.e]; n > 0 {
				rowMapZipS(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c], int(i.g), true)
			}
		case opRowZip2S:
			if n := ints[i.e]; n > 0 {
				rowZip2S(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c], floats[i.c+1], int(i.g))
			}
		case opRowMapZip:
			if n := ints[i.e]; n > 0 {
				rowMapZip(bufs[i.a][ints[i.d]:ints[i.d]+n],
					bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					bufs[i.c][ints[i.d+2]:ints[i.d+2]+n], int(i.g))
			}
		case opRowFill:
			if n := ints[i.e]; n > 0 {
				rowFill(bufs[i.a][ints[i.d]:ints[i.d]+n], floats[i.c])
			}
		case opRowGathS:
			if n := ints[i.e]; n > 0 {
				rowGathS(bufs[i.a][ints[i.d]:ints[i.d]+n], bufs[i.b], ints[i.d+1], ints[i.c], int(i.g))
			}
		case opRowFRedSR:
			if n := ints[i.e]; n > 0 {
				floats[i.c>>16] = rowFusedRed(bufs[i.a][ints[i.d]:ints[i.d]+n],
					bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c&0xffff], floats[i.c>>16], int(i.g), false)
			}
		case opRowFRedSL:
			if n := ints[i.e]; n > 0 {
				floats[i.c>>16] = rowFusedRed(bufs[i.a][ints[i.d]:ints[i.d]+n],
					bufs[i.b][ints[i.d+1]:ints[i.d+1]+n],
					floats[i.c&0xffff], floats[i.c>>16], int(i.g), true)
			}
		case opRowReduce:
			if n := ints[i.d]; n > 0 {
				floats[i.a] = rowReduce(floats[i.a], bufs[i.b][ints[i.c]:ints[i.c]+n], int(i.g))
			}
		case opRowTmp:
			if n := int(i.e); len(bufs[i.a]) < n {
				t := make([]float32, n)
				bufs[i.a] = t
				f.tmps[i.b] = t
			}
		}
		pc++
	}
}

func b2f(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

func rowMap1(dst, src []float32, fn int) {
	src = src[:len(dst)]
	f := unaryTable[fn]
	for k := range dst {
		dst[k] = f(src[k])
	}
}

func rowZip(dst, x, y []float32, fn int) {
	x = x[:len(dst)]
	y = y[:len(dst)]
	switch fn {
	case bcAdd:
		for k := range dst {
			dst[k] = x[k] + y[k]
		}
	case bcSub:
		for k := range dst {
			dst[k] = x[k] - y[k]
		}
	case bcMul:
		for k := range dst {
			dst[k] = x[k] * y[k]
		}
	case bcDiv:
		for k := range dst {
			dst[k] = x[k] / y[k]
		}
	default:
		f := binaryTable[fn]
		for k := range dst {
			dst[k] = f(x[k], y[k])
		}
	}
}

func rowZipS(dst, x []float32, s float32, fn int, scalarLeft bool) {
	x = x[:len(dst)]
	if scalarLeft {
		switch fn {
		case bcAdd:
			for k := range dst {
				dst[k] = s + x[k]
			}
		case bcSub:
			for k := range dst {
				dst[k] = s - x[k]
			}
		case bcMul:
			for k := range dst {
				dst[k] = s * x[k]
			}
		case bcDiv:
			for k := range dst {
				dst[k] = s / x[k]
			}
		default:
			f := binaryTable[fn]
			for k := range dst {
				dst[k] = f(s, x[k])
			}
		}
		return
	}
	switch fn {
	case bcAdd:
		for k := range dst {
			dst[k] = x[k] + s
		}
	case bcSub:
		for k := range dst {
			dst[k] = x[k] - s
		}
	case bcMul:
		for k := range dst {
			dst[k] = x[k] * s
		}
	case bcDiv:
		for k := range dst {
			dst[k] = x[k] / s
		}
	default:
		f := binaryTable[fn]
		for k := range dst {
			dst[k] = f(x[k], s)
		}
	}
}

func rowMapZipS(dst, x []float32, s float32, fns int, scalarLeft bool) {
	x = x[:len(dst)]
	u := unaryTable[fns>>8]
	bin := fns & 0xff
	if scalarLeft {
		switch bin {
		case bcSub:
			for k := range dst {
				dst[k] = u(s - x[k])
			}
		default:
			f := binaryTable[bin]
			for k := range dst {
				dst[k] = u(f(s, x[k]))
			}
		}
		return
	}
	switch bin {
	case bcSub:
		// The softmax sweep: dst = exp(x - max).
		for k := range dst {
			dst[k] = u(x[k] - s)
		}
	case bcMul:
		for k := range dst {
			dst[k] = u(x[k] * s)
		}
	default:
		f := binaryTable[bin]
		for k := range dst {
			dst[k] = u(f(x[k], s))
		}
	}
}

func rowZip2S(dst, x []float32, s1, s2 float32, fns int) {
	x = x[:len(dst)]
	b1 := fns & 0xff
	b2 := fns >> 8
	if b1 == bcSub && b2 == bcMul {
		// The layernorm sweep: dst = (x - mean) * rstd.
		for k := range dst {
			dst[k] = (x[k] - s1) * s2
		}
		return
	}
	f1 := binaryTable[b1]
	f2 := binaryTable[b2]
	for k := range dst {
		dst[k] = f2(f1(x[k], s1), s2)
	}
}

func rowMapZip(dst, x, y []float32, fns int) {
	x = x[:len(dst)]
	y = y[:len(dst)]
	u := unaryTable[fns>>8]
	switch fns & 0xff {
	case bcAdd:
		// The bias-broadcast sweep: dst = act(x + bias_row).
		for k := range dst {
			dst[k] = u(x[k] + y[k])
		}
	case bcMul:
		for k := range dst {
			dst[k] = u(x[k] * y[k])
		}
	default:
		f := binaryTable[fns&0xff]
		for k := range dst {
			dst[k] = u(f(x[k], y[k]))
		}
	}
}

func rowFill(dst []float32, s float32) {
	for k := range dst {
		dst[k] = s
	}
}

func rowGathS(dst, src []float32, sb, stride, un int) {
	if un == bcIdUn {
		for k := range dst {
			dst[k] = src[sb]
			sb += stride
		}
		return
	}
	f := unaryTable[un]
	for k := range dst {
		dst[k] = f(src[sb])
		sb += stride
	}
}

// rowFusedRed runs dst[i] = un(bin(x[i], s)); acc = bin2(acc, dst[i]) in one
// sweep. Reusing the stored value for the fold is bit-identical to the
// scalar loop's re-evaluation because the expression is pure and the sweep
// compiler fuses no writer that reads its own destination.
func rowFusedRed(dst, x []float32, s, acc float32, g int, scalarLeft bool) float32 {
	x = x[:len(dst)]
	un := (g >> 8) & 0xff
	bin := g & 0xff
	bin2 := g >> 16
	// The two softmax sweeps are open-coded: scale/max and exp-shift/sum.
	if !scalarLeft && un == bcIdUn && bin == bcMul && bin2 == bcMax {
		for k, v := range x {
			t := v * s
			dst[k] = t
			if !(acc > t) {
				acc = t
			}
		}
		return acc
	}
	if !scalarLeft && un == bcExpUn && bin == bcSub && bin2 == bcAdd {
		exp := unaryTable[bcExpUn]
		for k, v := range x {
			t := exp(v - s)
			dst[k] = t
			acc += t
		}
		return acc
	}
	u := unaryTable[un]
	f2 := binaryTable[bin2]
	if bin == binNoneIdx {
		for k, v := range x {
			t := u(v)
			dst[k] = t
			acc = f2(acc, t)
		}
		return acc
	}
	f1 := binaryTable[bin]
	if scalarLeft {
		for k, v := range x {
			t := u(f1(s, v))
			dst[k] = t
			acc = f2(acc, t)
		}
		return acc
	}
	for k, v := range x {
		t := u(f1(v, s))
		dst[k] = t
		acc = f2(acc, t)
	}
	return acc
}

func rowReduce(acc float32, src []float32, fn int) float32 {
	switch fn {
	case bcAdd:
		for _, v := range src {
			acc += v
		}
	case bcMax:
		// FnMax(acc, v) keeps acc only when acc > v (NaN acc is replaced,
		// matching tensor.FnMax bit for bit).
		for _, v := range src {
			if !(acc > v) {
				acc = v
			}
		}
	case bcMin:
		for _, v := range src {
			if !(acc < v) {
				acc = v
			}
		}
	default:
		f := binaryTable[fn]
		for _, v := range src {
			acc = f(acc, v)
		}
	}
	return acc
}
