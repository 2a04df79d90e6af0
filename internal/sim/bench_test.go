package sim

import (
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/perf"
)

// benchApps is a representative mixed workload: three DNN streams at
// different rates, a render app and background load on the flagship SoC —
// enough event traffic that the engine's heap, advanceTo and refresh paths
// all run hot.
func benchApps() []App {
	prof := perf.UniformProfile("dnn-mobile", 7_000_000, 7<<20,
		perf.PaperAccuracies, []float64{0.61, 0.68, 0.74, 0.78})
	return []App{
		{Name: "dnn1", Kind: KindDNN, Profile: prof, Level: 4, PeriodS: 0.040,
			ModelBytes: 7 << 20, Placement: Placement{Cluster: "npu"}},
		{Name: "dnn2", Kind: KindDNN, Profile: prof, Level: 4, PeriodS: 1.0 / 60,
			ModelBytes: 7 << 20, Placement: Placement{Cluster: "cpu-big", Cores: 4}},
		{Name: "dnn3", Kind: KindDNN, Profile: prof, Level: 2, PeriodS: 0.100,
			ModelBytes: 7 << 20, Placement: Placement{Cluster: "cpu-lit", Cores: 2}},
		{Name: "vr", Kind: KindRender, Util: 0.6, Placement: Placement{Cluster: "gpu"}},
		{Name: "bg", Kind: KindBackground, Util: 0.4, Placement: Placement{Cluster: "cpu-lit", Cores: 1}},
	}
}

// BenchmarkEngineRun measures one uncontrolled 10-simulated-second run of
// the mixed workload per iteration — the engine share of fleet throughput
// (BenchmarkPolicyPlan and BenchmarkReplan in internal/rtm isolate the
// planning layers above it). Construction is included; see
// BenchmarkEngineRunReuse for the steady-state cost a fleet worker pays.
func BenchmarkEngineRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Platform: hw.FlagshipSoC(), Apps: benchApps()})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
		if e.Report().DurationS != 10 {
			b.Fatal("short run")
		}
	}
}

// BenchmarkEngineRunReuse measures the same run on one engine Reset in
// place between iterations — the per-scenario cost inside a fleet worker,
// where construction is paid once per worker lifetime.
func BenchmarkEngineRunReuse(b *testing.B) {
	cfg := Config{Platform: hw.FlagshipSoC(), Apps: benchApps()}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			b.Fatal(err)
		}
		if e.Report().DurationS != 10 {
			b.Fatal("short run")
		}
	}
}

// TestEngineRunReuseAllocs pins the steady-state allocation budget: a
// Reset+Run cycle on a warmed engine must stay within 10 allocations
// (today's count is lower; the headroom absorbs map-iteration jitter, not
// new per-run allocation). A failure here means the engine hot path
// regained a per-run allocation — find it with
// `go test -run '^$' -bench EngineRunReuse -benchmem ./internal/sim`.
func TestEngineRunReuseAllocs(t *testing.T) {
	cfg := Config{Platform: hw.FlagshipSoC(), Apps: benchApps()}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Fatalf("steady-state Reset+Run costs %.1f allocs/run, budget is 10", avg)
	}
}

// TestControlledRunReuseAllocs is TestEngineRunReuseAllocs with a no-op
// controller in the loop and no event log — the shape of a fleet run. The
// workload misses deadlines, so a per-miss presentation Note formatted for
// a controller that never reads it would blow the same ≤ 10-alloc budget.
func TestControlledRunReuseAllocs(t *testing.T) {
	cfg := Config{Platform: hw.FlagshipSoC(), Apps: benchApps(), Controller: controllerFuncs{}, TickS: 0.25}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	missed := 0
	for _, a := range e.Report().Apps {
		missed += a.Missed
	}
	if missed == 0 {
		t.Fatal("workload missed no deadline: the miss path went unmeasured")
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := e.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(10); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Fatalf("steady-state controlled Reset+Run costs %.1f allocs/run, budget is 10", avg)
	}
}
