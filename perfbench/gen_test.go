package main

import "testing"

func ops(seed int64, n int) []fleetOp {
	g := newOpGen(seed, 24)
	out := make([]fleetOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestOpGenDeterministic(t *testing.T) {
	a, b := ops(7, 5000), ops(7, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 request %d: %+v then %+v", i, a[i], b[i])
		}
	}
	c := ops(8, 5000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated the same sequence")
	}
}

func TestOpGenMix(t *testing.T) {
	const n = 50000
	count := map[opKind]int{}
	ranks := make([]int, 24)
	for i, op := range ops(1, n) {
		count[op.kind]++
		if op.kind == opCold {
			if (i+1)%coldEvery != 0 || op.rank != (i+1)/coldEvery-1 {
				t.Fatalf("request %d: cold question %d out of place", i, op.rank)
			}
			continue
		}
		ranks[op.rank]++
	}
	if count[opCold] != n/coldEvery {
		t.Errorf("%d cold requests in %d, want exactly 2%%", count[opCold], n)
	}
	for kind, want := range map[opKind]float64{opPlan: 0.7056, opArtifact: 0.098, opEvalSim: 0.0784, opEvalRuntime: 0.0784} {
		if got := float64(count[kind]) / n; got < want*0.95 || got > want*1.05 {
			t.Errorf("%v share %.4f, want about %.4f", kind, got, want)
		}
	}
	for r := 1; r < len(ranks); r++ {
		if ranks[r] > ranks[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0's %d", r, ranks[r], ranks[0])
		}
	}
}

func TestColdQuestionsDeriveFromSeed(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; k < 20; k++ {
		a, err := coldQuestion(3, k)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := coldQuestion(3, k)
		if a != b {
			t.Fatalf("cold question %d not reproducible: %+v vs %+v", k, a, b)
		}
		c, _ := coldQuestion(4, k)
		if a == c {
			t.Errorf("seeds 3 and 4 share cold question %d", k)
		}
		if seen[a.Model] {
			t.Errorf("cold question %d repeats an earlier one: %s", k, a.Model)
		}
		seen[a.Model] = true
	}
}
