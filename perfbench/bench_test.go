package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{10, 0.91, 10}, // round-half-up would give rank 9
		{10, 0.50, 5},
		{100, 0.91, 91},
		{1000, 0.99, 990},
		{1, 0.99, 1},
	} {
		if got := nearestRank(c.n, c.p); got != c.want {
			t.Errorf("nearestRank(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	samples := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(samples, 0.91); got != 10 {
		t.Errorf("percentile(1..10, 0.91) = %g, want 10", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileListsWhatRunsEmit(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, listed []struct{ Name, Unit string }, emitted []named) {
		if len(listed) != len(emitted) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(emitted))
		}
		for i, m := range emitted {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark emits %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, s := range specs() {
		names = append(names, s.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, ",") != strings.Join(names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark workloads %v", listed, names)
	}
}

// tiny runs one pass of workload at a tiny size.
func tiny(t *testing.T, workload string, trace bool, corrupt func(string) error) result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 7, trace: trace, setups: 1, size: 4,
		dir: t.TempDir(), log: io.Discard, corrupt: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTinyPassEmitsEveryMetric(t *testing.T) {
	for _, s := range specs() {
		for _, trace := range []bool{false, true} {
			res := tiny(t, s.name, trace, nil)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", s.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", s.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", s.name, trace, m.name, got, m.unit)
				}
			}
			if trace && res.Metrics["fail_ratio"].Value != 0 {
				t.Errorf("%s: fail_ratio %g", s.name, res.Metrics["fail_ratio"].Value)
			}
		}
	}
}

func TestCorruptedStreamFailsTheCheck(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		// A changed number still parses and validates; only the comparison
		// with the one-process report can catch it.
		"value changed": func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"energyMJ":`)) + len(`"energyMJ":`)
			if b[i] == '1' {
				b[i] = '2'
			} else {
				b[i] = '1'
			}
			return b
		},
		"record torn": func(b []byte) []byte { return b[:len(b)-7] },
	} {
		t.Run(name, func(t *testing.T) {
			res := tiny(t, "shard-stream", false, func(path string) error {
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				return os.WriteFile(path, corrupt(b), 0o644)
			})
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted stream passed: correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestIdentityCatchesAChangedWorkload(t *testing.T) {
	ids, err := pinned()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs() {
		if _, ok := ids[s.name]; !ok {
			t.Errorf("identity.json has no entry for %s", s.name)
		}
	}
	sp, err := findSpec("fleet-mix")
	if err != nil {
		t.Fatal(err)
	}
	p, err := sp.setup(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ids["fleet-mix"]
	if d := want.diff(identityOf(p, want.Counters), true); len(d) != 0 {
		t.Fatalf("pinned fleet-mix scenarios differ from the generated ones: %v", d)
	}
	p.scenarios[5].Script.EndS++
	if d := want.diff(identityOf(p, want.Counters), true); len(d) != 1 || !strings.Contains(d[0], "scenario sha256") {
		t.Errorf("changed scenario reported as %v, want one scenario digest difference", d)
	}
	c := want.Counters
	c.Plans++
	if d := want.diff(identityOf(p, c), true); len(d) != 2 {
		t.Errorf("changed plan count reported as %v, want digest and counter differences", d)
	}
}
