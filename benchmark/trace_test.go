package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// http ⊃ fleet ⊃ {decode, serve ⊃ exec ⊃ kir}; durations in ms are the
	// last three digits of EndUs.
	spans := []span{
		{ID: 1, Parent: 0, Name: "http", StartUs: 0, EndUs: 1000},
		{ID: 2, Parent: 1, Name: "fleet", StartUs: 50, EndUs: 900},
		{ID: 3, Parent: 2, Name: "fleet.decode", StartUs: 2000, EndUs: 2100},
		{ID: 4, Parent: 2, Name: "serve", StartUs: 3000, EndUs: 3600},
		{ID: 5, Parent: 4, Name: "exec", StartUs: 4000, EndUs: 4650},
		{ID: 6, Parent: 5, Name: "kir", StartUs: 5000, EndUs: 5400},
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1: 0.150, // 1000 − 850
		2: 0.150, // 850 − 100 − 600
		3: 0.100,
		4: -0.050, // the re-executed exec outran the serve call around it
		5: 0.250,
		6: 0.400,
	}
	var sum float64
	for id, w := range want {
		if got := self[id]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of span %d = %v ms, want %v", id, got, w)
		}
		sum += self[id]
	}
	// Self times of one request sum to its root span, negative ones included:
	// clamping would break that.
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("self times sum to %v ms, the root span is 1 ms", sum)
	}
}
