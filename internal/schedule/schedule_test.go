package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidAndString(t *testing.T) {
	if !(Config{MicroBatch: 4, K: 1}).Valid() {
		t.Error("valid config rejected")
	}
	if (Config{MicroBatch: 0, K: 1}).Valid() || (Config{MicroBatch: 2, K: 0}).Valid() {
		t.Error("invalid config accepted")
	}
	if got := (Config{MicroBatch: 4, K: 2}).String(); got != "b=4 2F2B" {
		t.Errorf("String = %q", got)
	}
}

func TestSinkInFlight(t *testing.T) {
	// A stage with no successors keeps k·b samples in flight.
	if got := ComputeInFlight(Config{MicroBatch: 4, K: 1}, nil); got != 4 {
		t.Errorf("sink 1F1B b=4: %d, want 4", got)
	}
	if got := ComputeInFlight(Config{MicroBatch: 2, K: 3}, nil); got != 6 {
		t.Errorf("sink 3F3B b=2: %d, want 6", got)
	}
}

// TestClassic1F1BChain reproduces the textbook SPP result: with a uniform
// micro-batch size and 1F1B, the stage at depth p from the sink keeps p·b
// samples in flight (Figure 1: 4 sequential stages, warm-up 4..1).
func TestClassic1F1BChain(t *testing.T) {
	b := 4
	cfg := Config{MicroBatch: b, K: 1}
	inFlight := ComputeInFlight(cfg, nil)
	if inFlight != b {
		t.Fatalf("sink in-flight = %d", inFlight)
	}
	for depth := 2; depth <= 8; depth++ {
		inFlight = ComputeInFlight(cfg, []Successor{{Config: cfg, InFlight: inFlight}})
		if want := depth * b; inFlight != want {
			t.Fatalf("depth %d: in-flight = %d, want %d", depth, inFlight, want)
		}
	}
}

// TestFigure5PerStageMicroBatch reproduces the worked example of Figure 5:
// a 3-stage chain S1 -> S2 -> S3 with per-stage micro-batch sizes 1, 2, 4
// yields 10 in-flight samples at S1, versus 12 with a universal size of 4.
func TestFigure5PerStageMicroBatch(t *testing.T) {
	// Universal micro-batch size 4.
	s3 := ComputeInFlight(Config{MicroBatch: 4, K: 1}, nil)
	s2 := ComputeInFlight(Config{MicroBatch: 4, K: 1}, []Successor{{Config: Config{MicroBatch: 4, K: 1}, InFlight: s3}})
	s1 := ComputeInFlight(Config{MicroBatch: 4, K: 1}, []Successor{{Config: Config{MicroBatch: 4, K: 1}, InFlight: s2}})
	if s1 != 12 {
		t.Errorf("universal: S1 in-flight = %d, want 12", s1)
	}
	// Per-stage sizes: S1 b=1, S2 b=2, S3 b=4.
	s3 = ComputeInFlight(Config{MicroBatch: 4, K: 1}, nil)
	s2 = ComputeInFlight(Config{MicroBatch: 2, K: 1}, []Successor{{Config: Config{MicroBatch: 4, K: 1}, InFlight: s3}})
	s1 = ComputeInFlight(Config{MicroBatch: 1, K: 1}, []Successor{{Config: Config{MicroBatch: 2, K: 1}, InFlight: s2}})
	if s1 != 10 {
		t.Errorf("per-stage: S1 in-flight = %d, want 10", s1)
	}
}

func TestKFKBChain(t *testing.T) {
	// Uniform b, k=2: m_x = m_y = 2b with max{b_x,b_y} = b < m_y, so each
	// upstream stage adds 2b (Table 2 row "max < k_y b_y = k_x b_x").
	b := 2
	cfg := Config{MicroBatch: b, K: 2}
	i := ComputeInFlight(cfg, nil)
	if i != 4 {
		t.Fatalf("sink 2F2B: %d", i)
	}
	i2 := ComputeInFlight(cfg, []Successor{{Config: cfg, InFlight: i}})
	if i2 != i+2*b {
		t.Errorf("2F2B chain step: %d, want %d", i2, i+2*b)
	}
}

func TestMultipleSuccessorsTakeMax(t *testing.T) {
	// Graph-shaped dependency: a stage feeding two branches needs the
	// larger of the two branch requirements (Appendix A.1).
	cur := Config{MicroBatch: 2, K: 1}
	succA := Successor{Config: Config{MicroBatch: 2, K: 1}, InFlight: 2}
	succB := Successor{Config: Config{MicroBatch: 2, K: 1}, InFlight: 8}
	got := ComputeInFlight(cur, []Successor{succA, succB})
	wantA := ComputeInFlight(cur, []Successor{succA})
	wantB := ComputeInFlight(cur, []Successor{succB})
	if got != wantB || wantB <= wantA {
		t.Errorf("max over successors: got %d, branch results %d, %d", got, wantA, wantB)
	}
}

// TestComputeInFlightExhaustive verifies Table 2 covers every (k, b)
// combination in a realistic range — the switch must never panic — and that
// the result is at least the successor's in-flight count (pipelining never
// reduces upstream memory below downstream).
func TestComputeInFlightExhaustive(t *testing.T) {
	vals := []int{1, 2, 3, 4, 6, 8, 16}
	ks := []int{1, 2, 3, 4}
	for _, bx := range vals {
		for _, kx := range ks {
			for _, by := range vals {
				for _, ky := range ks {
					for _, iy := range []int{0, 1, 4, 32} {
						got := ComputeInFlight(
							Config{MicroBatch: bx, K: kx},
							[]Successor{{Config: Config{MicroBatch: by, K: ky}, InFlight: iy}})
						if got < iy {
							t.Fatalf("in-flight shrank: cur=(b%d,k%d) succ=(b%d,k%d,i%d) -> %d",
								bx, kx, by, ky, iy, got)
						}
						if got < bx {
							t.Fatalf("in-flight below one micro-batch: cur=(b%d,k%d) succ=(b%d,k%d,i%d) -> %d",
								bx, kx, by, ky, iy, got)
						}
					}
				}
			}
		}
	}
}

// TestComputeInFlightIsSuccessorOffset pins the form of every Table 2
// case that GraphPipe's DP prunes by: the result is the successor's
// in-flight count plus a term of the two configs alone, and that term is
// at least one sample. So ComputeInFlight(c, [{c2, i}]) equals
// i + ComputeInFlight(c, [{c2, 0}]), and is at least i + 1.
func TestComputeInFlightIsSuccessorOffset(t *testing.T) {
	vals := []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64, 256}
	ks := []int{1, 2, 3, 4, 8}
	for _, bx := range vals {
		for _, kx := range ks {
			cur := Config{MicroBatch: bx, K: kx}
			for _, by := range vals {
				for _, ky := range ks {
					succ := Config{MicroBatch: by, K: ky}
					base := ComputeInFlight(cur, []Successor{{Config: succ}})
					for _, i := range []int{0, 1, 7, 64, 1000, 1 << 20} {
						got := ComputeInFlight(cur, []Successor{{Config: succ, InFlight: i}})
						if got != i+base {
							t.Fatalf("cur=%v succ=%v i=%d: %d, want %d + %d", cur, succ, i, got, i, base)
						}
						if got < i+1 {
							t.Fatalf("cur=%v succ=%v i=%d: %d adds no sample", cur, succ, i, got)
						}
					}
				}
			}
		}
	}
}

func TestComputeInFlightPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid config")
		}
	}()
	ComputeInFlight(Config{MicroBatch: 0, K: 1}, nil)
}

func TestBuildTasks1F1B(t *testing.T) {
	cfg := Config{MicroBatch: 1, K: 1}
	tasks, err := BuildTasks(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := "F0 F1 F2 F3 B0 F4 B1 F5 B2 F6 B3 F7 B4 B5 B6 B7"
	got := ""
	for i, tk := range tasks {
		if i > 0 {
			got += " "
		}
		got += tk.Kind.String() + itoa(tk.Index)
	}
	if got != want {
		t.Errorf("1F1B schedule:\n got %s\nwant %s", got, want)
	}
	if err := ValidateTasks(tasks, cfg, 8); err != nil {
		t.Errorf("ValidateTasks: %v", err)
	}
	if peak := PeakInFlightSamples(tasks); peak != 4 {
		t.Errorf("peak in-flight = %d, want 4", peak)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestBuildTasksGPipeDegenerate(t *testing.T) {
	// In-flight window covering the whole mini-batch: all forwards then all
	// backwards.
	cfg := Config{MicroBatch: 2, K: 1}
	tasks, err := BuildTasks(cfg, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if tasks[i].Kind != Forward {
			t.Fatalf("task %d = %v, want forward", i, tasks[i])
		}
	}
	for i := 4; i < 8; i++ {
		if tasks[i].Kind != Backward {
			t.Fatalf("task %d = %v, want backward", i, tasks[i])
		}
	}
	if err := ValidateTasks(tasks, cfg, 8); err != nil {
		t.Error(err)
	}
}

func TestBuildTasksKFKB(t *testing.T) {
	cfg := Config{MicroBatch: 1, K: 2}
	tasks, err := BuildTasks(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTasks(tasks, cfg, 8); err != nil {
		t.Fatalf("kFkB schedule invalid: %v", err)
	}
	// Steady state alternates pairs: after warm-up of 4 F's come 2 B's.
	if tasks[4].Kind != Backward || tasks[5].Kind != Backward {
		t.Errorf("expected 2 backwards after warm-up, got %v %v", tasks[4], tasks[5])
	}
	if tasks[6].Kind != Forward || tasks[7].Kind != Forward {
		t.Errorf("expected 2 forwards in steady state, got %v %v", tasks[6], tasks[7])
	}
}

func TestBuildTasksSampleRanges(t *testing.T) {
	cfg := Config{MicroBatch: 4, K: 1}
	tasks, err := BuildTasks(cfg, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if tk.Start != tk.Index*4 || tk.End != tk.Start+4 {
			t.Errorf("task %v has wrong sample range", tk)
		}
	}
}

func TestBuildTasksErrors(t *testing.T) {
	if _, err := BuildTasks(Config{MicroBatch: 3, K: 1}, 8, 3); err == nil {
		t.Error("accepted non-dividing micro-batch")
	}
	if _, err := BuildTasks(Config{MicroBatch: 0, K: 1}, 8, 0); err == nil {
		t.Error("accepted invalid config")
	}
	if _, err := BuildTasks(Config{MicroBatch: 2, K: 1}, 0, 0); err == nil {
		t.Error("accepted zero mini-batch")
	}
}

func TestValidateTasksCatchesViolations(t *testing.T) {
	cfg := Config{MicroBatch: 1, K: 1}
	good, _ := BuildTasks(cfg, 4, 2)
	if err := ValidateTasks(good, cfg, 4); err != nil {
		t.Fatal(err)
	}
	// Backward before its forward.
	bad := append([]Task{{Kind: Backward, Index: 0, Start: 0, End: 1}}, good...)
	if err := ValidateTasks(bad, cfg, 4); err == nil {
		t.Error("accepted B before F")
	}
	// Out-of-order forwards.
	bad2 := append([]Task(nil), good...)
	bad2[0], bad2[1] = bad2[1], bad2[0]
	if err := ValidateTasks(bad2, cfg, 4); err == nil {
		t.Error("accepted out-of-order forwards")
	}
	// Missing tasks.
	if err := ValidateTasks(good[:len(good)-1], cfg, 4); err == nil {
		t.Error("accepted incomplete schedule")
	}
}

// Property: for random valid (b, k, B, inflight), BuildTasks emits a valid
// schedule whose peak in-flight sample count never exceeds
// max(inflight, k·b) and never drops below min over the warm-up bound.
func TestBuildTasksQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 1 << rng.Intn(4)    // 1..8
		k := 1 + rng.Intn(3)     // 1..3
		n := (1 + rng.Intn(16))  // micro-batches
		inflight := rng.Intn(40) // samples
		mini := n * b
		cfg := Config{MicroBatch: b, K: k}
		tasks, err := BuildTasks(cfg, mini, inflight)
		if err != nil {
			return false
		}
		if ValidateTasks(tasks, cfg, mini) != nil {
			return false
		}
		peak := PeakInFlightSamples(tasks)
		bound := inflight
		if k*b > bound {
			bound = k * b
		}
		if mini < bound {
			bound = mini
		}
		return peak <= bound && peak >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the in-flight count computed by Table 2 is an upper bound the
// generated schedules respect: a stage scheduled with BuildTasks at the
// Table 2 in-flight count has peak samples ≤ that count (when it divides
// evenly into micro-batches).
func TestTable2BoundsSchedulePeak(t *testing.T) {
	for _, bx := range []int{1, 2, 4} {
		for _, by := range []int{1, 2, 4} {
			sink := ComputeInFlight(Config{MicroBatch: by, K: 1}, nil)
			ifl := ComputeInFlight(Config{MicroBatch: bx, K: 1},
				[]Successor{{Config: Config{MicroBatch: by, K: 1}, InFlight: sink}})
			mini := 32
			tasks, err := BuildTasks(Config{MicroBatch: bx, K: 1}, mini, ifl)
			if err != nil {
				t.Fatal(err)
			}
			peak := PeakInFlightSamples(tasks)
			// Round the sample bound up to whole micro-batches.
			bound := ((ifl + bx - 1) / bx) * bx
			if peak > bound {
				t.Errorf("bx=%d by=%d: peak %d exceeds Table 2 bound %d", bx, by, peak, bound)
			}
		}
	}
}
