package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series
// (`name{label="v",...}` exactly as printed, or the bare name) → value.
type promSample map[string]float64

// parseProm reads the text exposition format: comment and blank lines are
// skipped, every other line is `series value` with an optional timestamp.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the closing brace when there are labels (label
		// values may contain spaces), else at the first space.
		end := strings.IndexByte(line, ' ')
		if i := strings.IndexByte(line, '{'); i >= 0 && (end < 0 || i < end) {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unbalanced braces: %q", n+1, line)
			}
			end = j + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n+1, err)
		}
		out[line[:end]] = v
	}
	return out, nil
}

// delta is after − before per series; a series absent before counts from 0.
func (after promSample) delta(before promSample) promSample {
	d := make(promSample, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the named metric whose label set contains all
// of the given `key="value"` fragments.
func (s promSample) sum(name string, labels ...string) float64 {
	var total float64
next:
	for series, v := range s {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		total += v
	}
	return total
}
