package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/rtm"
)

// spec pins one benchmark workload: its generator config (master seed
// included), its size, and the layers its pass goes through. README.md
// says why each workload exists and which layer it stresses.
type spec struct {
	name string
	gen  fleet.GeneratorConfig
	// workloads is the number of sampled workloads; the pass runs each
	// once per policy.
	workloads int
	// keepLatencies keeps the raw per-job latency samples in every result.
	keepLatencies bool
	// train, when set, trains a learned table in set-up and sweeps it as
	// one more policy, "learned:<table>".
	train *fleet.TrainConfig
	// sharded runs the pass as two NDJSON shard streams, the second resumed
	// from a stream that set-up tore mid-record, read back and merged.
	sharded bool
}

var basePolicies = []string{"heuristic", "maxaccuracy", "minenergy"}

var replanClasses = []fleet.Class{fleet.ClassBursty, fleet.ClassChurn, fleet.ClassFaulty, fleet.ClassThermal}

// specs lists the pinned workloads. Sizes give every pass at least 1000
// runs, so run_ms_p99 has at least ten samples beyond it in one pass.
func specs() []spec {
	return []spec{
		{
			name:      "fleet-mix",
			gen:       fleet.GeneratorConfig{Seed: 1, Policies: basePolicies},
			workloads: 334,
		},
		{
			name: "replan-heavy",
			gen: fleet.GeneratorConfig{Seed: 1, Platforms: []string{"odroid-xu3"},
				Classes: replanClasses, Policies: basePolicies},
			workloads: 250,
			train: &fleet.TrainConfig{Seed: 2, Workloads: 64, Workers: 1,
				Platforms: []string{"odroid-xu3"}, Classes: replanClasses, Epochs: 1, Epsilon: 0.1},
		},
		{
			name:          "shard-stream",
			gen:           fleet.GeneratorConfig{Seed: 1, Policies: basePolicies},
			workloads:     400,
			keepLatencies: true,
			sharded:       true,
		},
	}
}

func findSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// prepared is one set-up's output: the generated scenario set, the
// seeded execution order and, per workload, the trained table or the torn
// shard stream.
type prepared struct {
	spec
	cfg       fleet.GeneratorConfig // as run: the learned policy's path filled in
	scenarios []fleet.Scenario      // in ID order
	ordered   []fleet.Scenario      // execution order of a plain pass
	genS      float64
	trainS    float64
	trainRep  fleet.TrainReport
	tableSum  string // sha256 of the trained table's bytes

	// Sharded workloads: the two stream paths, their index ranges, the
	// torn prefix of shard 1's stream and how many intact records it holds.
	paths    [2]string
	lo, hi   [2]int
	torn     []byte
	tornKept int
	// corrupt, when set, rewrites shard 0's stream after it is written and
	// before it is read back; tests use it to prove the checks catch it.
	corrupt func(path string) error
}

// setup builds the workload's inputs in dir. The scenario set is pinned by
// the spec; seed only orders a plain pass's runs and picks the byte at
// which the pre-written shard stream is torn, so every seed does the same
// work.
func (s spec) setup(dir string, seed int64) (*prepared, error) {
	p := &prepared{spec: s, cfg: s.gen}
	p.cfg.Policies = append([]string(nil), s.gen.Policies...)
	rng := rand.New(rand.NewSource(seed))
	if s.train != nil {
		t0 := time.Now()
		table, rep, err := fleet.Train(*s.train)
		if err != nil {
			return nil, fmt.Errorf("training the learned table: %w", err)
		}
		raw, err := table.MarshalBytes()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "learned.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return nil, err
		}
		p.trainS = time.Since(t0).Seconds()
		p.trainRep = rep
		sum := sha256.Sum256(raw)
		p.tableSum = hex.EncodeToString(sum[:])
		p.cfg.Policies = append(p.cfg.Policies, rtm.LearnedParamPrefix+":"+path)
	}
	t0 := time.Now()
	gen, err := fleet.NewGenerator(p.cfg)
	if err != nil {
		return nil, err
	}
	p.scenarios = gen.Generate(gen.RunCount(s.workloads))
	p.genS = time.Since(t0).Seconds()
	if !s.sharded {
		p.ordered = make([]fleet.Scenario, len(p.scenarios))
		for i, j := range rng.Perm(len(p.scenarios)) {
			p.ordered[i] = p.scenarios[j]
		}
		return p, nil
	}
	if err := p.prewrite(dir, rng); err != nil {
		return nil, fmt.Errorf("pre-writing the torn stream: %w", err)
	}
	return p, nil
}

// prewrite runs the first quarter of shard 1 and one record more, streams
// the results, and tears the stream inside that last record, as a process
// killed mid-write leaves it.
func (p *prepared) prewrite(dir string, rng *rand.Rand) error {
	runs := len(p.scenarios)
	for i := range p.paths {
		p.lo[i], p.hi[i] = fleet.ShardRange(runs, i, len(p.paths))
		p.paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.ndjson", i))
	}
	p.tornKept = (p.hi[1] - p.lo[1]) / 4
	var buf bytes.Buffer
	sw, err := fleet.NewStreamWriter(&buf, fleet.StreamHeader{Config: p.cfg, Total: runs, Lo: p.lo[1], Hi: p.hi[1]})
	if err != nil {
		return err
	}
	var appendErr error
	r := &fleet.Runner{Workers: 1, OnResult: func(_ int, res fleet.Result) {
		if appendErr == nil {
			appendErr = sw.Append(res)
		}
	}}
	r.Run(p.scenarios[p.lo[1] : p.lo[1]+p.tornKept+1])
	if appendErr != nil {
		return appendErr
	}
	b := buf.Bytes()
	last := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
	cut := last + 1 + rng.Intn(len(b)-last-2)
	p.torn = append([]byte(nil), b[:cut]...)
	return nil
}

// runClock turns Runner.Progress callbacks into per-run host times: each
// run is timed from the previous callback, the first from the call start.
type runClock struct {
	last time.Time
	ms   []float64
}

func (c *runClock) progress(int, int) {
	now := time.Now()
	c.ms = append(c.ms, float64(now.Sub(c.last).Nanoseconds())/1e6)
	c.last = now
}

// passOut is one untraced pass: the fleet's output and what it cost.
type passOut struct {
	runs     int            // scenario runs executed
	results  []fleet.Result // every result of the fleet, in ID order
	executed []fleet.Result // the results of the runs executed, in ID order
	report   []byte         // the fleet.Report as JSON
	runMs    []float64
	plans    rtm.PlanStats
	wallNs   int64
	mallocs  uint64
	err      error
}

// pass runs the workload once, untraced, through the public fleet entry
// points: Runner.Run then Aggregate, or, sharded, ResumeShard per shard,
// ReadShardFile per shard and Merge.
func (p *prepared) pass() passOut {
	if p.sharded {
		return p.shardPass()
	}
	clock := runClock{ms: make([]float64, 0, len(p.ordered))}
	r := &fleet.Runner{Workers: 1, DropLatencies: !p.keepLatencies, Progress: clock.progress}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	clock.last = t0
	res := r.Run(p.ordered)
	byID := make([]fleet.Result, len(res))
	for i, s := range p.ordered {
		byID[s.ID] = res[i]
	}
	report, err := json.Marshal(fleet.Aggregate(p.cfg.Seed, byID))
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return passOut{
		runs: len(res), results: byID, executed: byID, report: report,
		runMs: clock.ms, plans: r.PlanCacheStats(), wallNs: wall.Nanoseconds(),
		mallocs: m1.Mallocs - m0.Mallocs, err: err,
	}
}

func (p *prepared) shardPass() passOut {
	out := passOut{runs: len(p.scenarios) - p.tornKept}
	// Untimed: restore the inputs a pass starts from.
	if err := os.Remove(p.paths[0]); err != nil && !errors.Is(err, os.ErrNotExist) {
		out.err = err
		return out
	}
	if err := os.WriteFile(p.paths[1], p.torn, 0o644); err != nil {
		out.err = err
		return out
	}
	clock := runClock{ms: make([]float64, 0, out.runs)}
	r := &fleet.Runner{Workers: 1, Progress: clock.progress}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var shards [2]fleet.ShardResult
	out.err = func() error {
		for i, path := range p.paths {
			clock.last = time.Now()
			s, err := r.ResumeShard(path, p.cfg, p.workloads, i, len(p.paths))
			if err != nil {
				return err
			}
			if i == 0 && p.corrupt != nil {
				if err := p.corrupt(path); err != nil {
					return err
				}
			}
			if i == 1 {
				s.Results = s.Results[p.tornKept:]
			}
			out.executed = append(out.executed, s.Results...)
		}
		for i, path := range p.paths {
			s, err := fleet.ReadShardFile(path)
			if err != nil {
				return err
			}
			shards[i] = s
		}
		rep, merged, err := fleet.Merge(shards[0], shards[1])
		if err != nil {
			return err
		}
		out.results = merged
		out.report, err = json.Marshal(rep)
		return err
	}()
	out.wallNs = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.runMs = clock.ms
	out.plans = r.PlanCacheStats()
	return out
}

// reference runs the whole fleet in one process with one Runner.Run and
// returns its report as JSON: what a sharded pass's merged report must
// equal byte for byte.
func (p *prepared) reference() ([]byte, error) {
	r := &fleet.Runner{Workers: 1, DropLatencies: !p.keepLatencies}
	return json.Marshal(fleet.Aggregate(p.cfg.Seed, r.Run(p.scenarios)))
}

// executedScenarios lists the scenarios a pass runs, in ID order.
func (p *prepared) executedScenarios() []fleet.Scenario {
	if !p.sharded {
		return p.scenarios
	}
	out := append([]fleet.Scenario(nil), p.scenarios[p.lo[0]:p.hi[0]]...)
	return append(out, p.scenarios[p.lo[1]+p.tornKept:p.hi[1]]...)
}

// badResult reports why a result fails the per-run output check, or "".
// The check is frame conservation as the simulator counts frames: a late
// job is both completed and missed, so missed frames are a subset of the
// completed ones, and every released frame is completed, dropped, aborted
// by a fault or still in flight at the horizon.
func badResult(r fleet.Result) string {
	switch {
	case r.Err != "":
		return r.Err
	case r.Missed > r.Completed:
		return fmt.Sprintf("missed %d > completed %d", r.Missed, r.Completed)
	case r.Released < r.Completed+r.Dropped+r.JobsAborted:
		return fmt.Sprintf("released %d < completed %d + dropped %d + aborted %d",
			r.Released, r.Completed, r.Dropped, r.JobsAborted)
	}
	return ""
}
