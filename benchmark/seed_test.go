package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The seed, and nothing else, decides what the server receives and when.
func TestSeedDrivesPoolAndSchedule(t *testing.T) {
	w, err := workloadByName("dlrm_tiny")
	if err != nil {
		t.Fatal(err)
	}
	texts, err := writeRepo(t.TempDir(), w.models)
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed uint64) (string, schedule) {
		pool, err := buildPool(w, seed, texts)
		if err != nil {
			t.Fatal(err)
		}
		return poolHash(pool), poissonSchedule(seed, w.rate, 2*time.Second, len(pool))
	}
	h1, s1 := build(7)
	h2, s2 := build(7)
	h3, s3 := build(8)
	if h1 != h2 || !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave a different pool or schedule")
	}
	if h1 == h3 {
		t.Error("different seeds gave the same pool")
	}
	if reflect.DeepEqual(s1.due, s3.due) || reflect.DeepEqual(s1.pick, s3.pick) {
		t.Error("different seeds gave the same schedule")
	}
	// Poisson arrivals at the workload's rate: the count is within five
	// standard deviations of rate × phase, and due times ascend.
	mean := w.rate * 2
	if n := float64(len(s1.due)); n < mean-5*math.Sqrt(mean) || n > mean+5*math.Sqrt(mean) {
		t.Errorf("%v arrivals in 2 s at %v/s", n, w.rate)
	}
	for i := 1; i < len(s1.due); i++ {
		if s1.due[i] < s1.due[i-1] {
			t.Fatalf("due times descend at %d", i)
		}
	}
}

// Every window of a phase must see the same shape mix: the pool is sent in
// whole permutation cycles.
func TestPoolCycleVisitsEveryEntryPerCycle(t *testing.T) {
	s := poissonSchedule(3, 1000, time.Second, 16)
	for c := 0; c+16 <= len(s.pick); c += 16 {
		seen := map[int]bool{}
		for _, i := range s.pick[c : c+16] {
			seen[i] = true
		}
		if len(seen) != 16 {
			t.Fatalf("cycle starting at %d visits %d of 16 entries", c, len(seen))
		}
	}
}

// The shape mix of a workload is fixed; only values and order follow the seed.
func TestShapeMixIsSeedIndependent(t *testing.T) {
	for _, w := range workloads {
		a, b := w.points(), w.points()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two calls gave different shape mixes", w.name)
		}
	}
	w, _ := workloadByName("bert_zipf")
	if n := distinctShapes(w.points()); n < 30 {
		t.Errorf("bert_zipf has %d distinct shapes, the workload is defined by at least 30", n)
	}
}
