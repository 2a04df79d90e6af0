package fleet

import (
	"slices"
	"sort"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// TestLatenciesMatchEventLog pins the fleet's latency capture: a fleet run
// keeps no event log and reads the engine's completion-order latency
// buffer, and every Result — raw Latencies and the mean/p95/max derived
// from them — must equal what the full event log of the same script
// yields, on every class (hardware faults included), through RunOne and
// through a worker reusing one engine.
func TestLatenciesMatchEventLog(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{
		Seed:     23,
		Classes:  AllClasses(),
		Policies: []string{"heuristic", "minenergy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	scens := gen.Generate(gen.RunCount(12))
	pooled := (&Runner{Workers: 1}).Run(scens)

	classes := map[Class]bool{}
	missed := 0
	for i, s := range scens {
		classes[s.Class] = true
		script := s.Script
		if script.Policy == "" {
			script.Policy = s.Policy
		}
		_, _, rep, err := workload.Run(script, hw.Catalog()[s.Platform], TickS, nil)
		if err != nil {
			t.Fatalf("scenario %d: %v", s.ID, err)
		}
		var want []float64
		var sum, maxLat float64
		for _, ev := range rep.Events {
			if ev.Kind == sim.EvJobComplete || ev.Kind == sim.EvDeadlineMiss {
				want = append(want, ev.LatencyS)
				sum += ev.LatencyS
				if ev.LatencyS > maxLat {
					maxLat = ev.LatencyS
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("scenario %d completed no job", s.ID)
		}
		sorted := append([]float64(nil), want...)
		sort.Float64s(sorted)
		mean, p95 := sum/float64(len(want)), PercentileSorted(sorted, 0.95)

		for _, got := range []struct {
			path string
			r    Result
		}{{"RunOne", RunOne(s)}, {"Runner", pooled[i]}} {
			r := got.r
			if r.Err != "" {
				t.Fatalf("scenario %d (%s): %s", s.ID, got.path, r.Err)
			}
			if !slices.Equal(r.Latencies, want) {
				t.Errorf("scenario %d (%s, %s): %d latencies differ from the event log's %d",
					s.ID, got.path, s.Class, len(r.Latencies), len(want))
			}
			if r.MeanLatencyS != mean || r.P95LatencyS != p95 || r.MaxLatencyS != maxLat {
				t.Errorf("scenario %d (%s, %s): mean/p95/max %v/%v/%v, event log gives %v/%v/%v",
					s.ID, got.path, s.Class, r.MeanLatencyS, r.P95LatencyS, r.MaxLatencyS, mean, p95, maxLat)
			}
		}
		missed += pooled[i].Missed
	}
	if len(scens) < 24 || !classes[ClassFaulty] {
		t.Fatalf("%d scenarios over classes %v; want ≥ 24 including faulty", len(scens), classes)
	}
	if missed == 0 {
		t.Fatal("no scenario missed a deadline: EvDeadlineMiss latencies went unchecked")
	}
}
