package exec

import (
	"bytes"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"godisc/internal/device"
	"godisc/internal/fusion"
	"godisc/internal/kir"
)

// FuzzDecodeImage drives the engine image decoder with arbitrary bytes,
// seeded with the zoo images (dlrm's whole, the others with constants cut
// to four elements), a small random-graph image, and truncated and
// bit-flipped copies. Any input decodes or is rejected, and never panics.
// An accepted image re-encodes to an image that decodes and re-encodes to
// itself, and every kernel program it carries (whose integer immediates
// are small, see smallImmediates) runs to completion inside its frame at
// in-range dims: the only failures a run may show are the
// data-dependent ones the validator leaves to Go's checks (an element
// index outside a buffer, an integer division by zero), which
// Executable.RunContext recovers into ErrKernelPanic.
func FuzzDecodeImage(f *testing.F) {
	var images [][]byte
	for name, e := range zooEngines(f) {
		if name != "dlrm" {
			// Constants are most of an image and the least interesting
			// part; the fuzzer minimizes large inputs slowly. Keep four
			// elements of each (a short constant only fails at run time).
			trimmed := *e
			trimmed.constRefs = nil
			for _, c := range e.constRefs {
				trimmed.constRefs = append(trimmed.constRefs, constRef{slot: c.slot, buf: c.buf[:min(4, len(c.buf))]})
			}
			e = &trimmed
		}
		img, err := e.EncodeImage()
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, img)
	}
	small, err := compile(f, buildRandom(901, 5, 4), fusion.DefaultConfig()).EncodeImage()
	if err != nil {
		f.Fatal(err)
	}
	images = append(images, small)
	for _, img := range images {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:len(img)-1])
		for k := 1; k < 8; k++ {
			flipped := append([]byte(nil), img...)
			flipped[k*len(img)/8] ^= 1 << k
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("\x04GDEI"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeImage(data, device.A10(), DefaultOptions())
		if err != nil {
			if e != nil {
				t.Fatal("DecodeImage returned both an engine and an error")
			}
			return
		}
		again, err := e.EncodeImage()
		if err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		e2, err := DecodeImage(again, device.A10(), DefaultOptions())
		if err != nil {
			t.Fatalf("a re-encoded image is refused: %v", err)
		}
		if third, _ := e2.EncodeImage(); !bytes.Equal(third, again) {
			t.Fatal("re-encoding is not stable")
		}
		seen := map[*kir.Compiled]bool{}
		for _, v := range variantsOf(e) {
			if !seen[v.Code] && smallImmediates(v.Code) {
				seen[v.Code] = true
				runFuzzedProgram(t, v.Code)
			}
		}
	})
}

// intImmediate matches the disassembly of the instructions that carry an
// integer immediate.
var intImmediate = regexp.MustCompile(`(?m)^\s*\d+\s+(iconst|iaddi|imuli)\s.*?(-?\d+)$`)

// smallImmediates reports whether every integer immediate of the program
// is at most maxFuzzImmediate in magnitude (the zoo's largest is 128). The
// validator proves that a program terminates, not that it does so soon: a
// mutated loop extent of 1<<30 is a valid program that runs for minutes, so
// the fuzzer only runs programs whose extents are built from small
// constants and the in-range dims.
func smallImmediates(cp *kir.Compiled) bool {
	for _, m := range intImmediate.FindAllStringSubmatch(cp.Disassemble(), -1) {
		if x, err := strconv.Atoi(m[2]); err != nil || x > maxFuzzImmediate || x < -maxFuzzImmediate {
			return false
		}
	}
	return true
}

const maxFuzzImmediate = 1024

// runFuzzedProgram runs a program on 64-element buffers with every dim 2,
// and fails on any panic other than a data-dependent bounds or
// divide-by-zero error.
func runFuzzedProgram(t *testing.T, cp *kir.Compiled) {
	bufs := make([][]float32, cp.NumBuffers())
	for i := range bufs {
		bufs[i] = make([]float32, 64)
	}
	dims := make([]int, len(cp.DimNames()))
	for i := range dims {
		dims[i] = 2
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if re, ok := r.(runtime.Error); ok {
			msg := re.Error()
			for _, allowed := range []string{"index out of range", "slice bounds out of range", "integer divide by zero"} {
				if strings.Contains(msg, allowed) {
					return
				}
			}
		}
		t.Fatalf("program %s panicked: %v\n%s", cp.Name(), r, cp.Disassemble())
	}()
	if err := cp.Run(bufs, dims); err != nil {
		t.Fatalf("program %s: %v", cp.Name(), err)
	}
}
