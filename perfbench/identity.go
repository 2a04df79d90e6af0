package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/emlrtm/emlrtm/internal/fleet"
	"github.com/emlrtm/emlrtm/internal/rtm"
	"github.com/emlrtm/emlrtm/internal/sim"
	"github.com/emlrtm/emlrtm/internal/workload"
)

// identity pins what a workload is, so that a run on a different workload
// is reported as "workload changed" and never read as a speed change.
// Counters are exact work counts of one pass; Events is known only to the
// traced pass.
type identity struct {
	Config   fleet.GeneratorConfig `json:"config"`
	Train    *fleet.TrainConfig    `json:"train,omitempty"`
	Table    string                `json:"tableSha256,omitempty"`
	Digest   string                `json:"scenarioSha256"`
	Counters counters              `json:"counters"`
}

type counters struct {
	Runs   int `json:"runs"`
	Frames int `json:"framesReleased"`
	Events int `json:"events"`
	Plans  int `json:"plans"`
	Elided int `json:"elided"`
}

// pinned holds the identities this benchmark was calibrated on, keyed by
// workload name. Regenerate it with -record-identity after a deliberate
// change to a workload or to modelled behaviour.
//
//go:embed identity.json
var pinnedJSON []byte

func pinned() (map[string]identity, error) {
	var m map[string]identity
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return nil, fmt.Errorf("identity.json: %w", err)
	}
	return m, nil
}

// learnedTable stands in for the learned table's path, which differs
// between processes; the table itself is pinned by its digest.
const learnedTable = rtm.LearnedParamPrefix + ":<table>"

func stablePolicy(name string) string {
	if strings.HasPrefix(name, rtm.LearnedParamPrefix+":") {
		return learnedTable
	}
	return name
}

// identityOf describes prepared workload p; the counters come from the
// caller.
func identityOf(p *prepared, c counters) identity {
	cfg := p.cfg
	cfg.Policies = make([]string, len(p.cfg.Policies))
	for i, name := range p.cfg.Policies {
		cfg.Policies[i] = stablePolicy(name)
	}
	return identity{Config: cfg, Train: p.train, Table: p.tableSum, Digest: scenarioDigest(p.scenarios), Counters: c}
}

// scenarioDigest hashes the serialisable fields of a scenario set: IDs,
// seeds, classes, platforms, policies, apps, requirements, action times
// and names, fault windows and horizons.
func scenarioDigest(scenarios []fleet.Scenario) string {
	type action struct {
		AtS  float64
		Name string
	}
	type row struct {
		ID       int
		Seed     uint64
		Class    fleet.Class
		Platform string
		Policy   string
		Apps     []sim.App
		Reqs     map[string]rtm.Requirement
		Actions  []action
		Faults   []workload.FaultWindow
		EndS     float64
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range scenarios {
		r := row{ID: s.ID, Seed: s.Seed, Class: s.Class, Platform: s.Platform,
			Policy: stablePolicy(s.Script.Policy), Apps: s.Script.Apps, Reqs: s.Script.Reqs,
			Faults: s.Script.Faults, EndS: s.Script.EndS}
		for _, a := range s.Script.Actions {
			r.Actions = append(r.Actions, action{a.AtS, a.Name})
		}
		if err := enc.Encode(r); err != nil {
			// Every field is plain data; encoding cannot fail.
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diff lists how got differs from want. withEvents compares the traced
// pass's event count too.
func (want identity) diff(got identity, withEvents bool) []string {
	var out []string
	a, _ := json.Marshal(want.Config)
	b, _ := json.Marshal(got.Config)
	if string(a) != string(b) {
		out = append(out, fmt.Sprintf("generator config %s, pinned %s", b, a))
	}
	a, _ = json.Marshal(want.Train)
	b, _ = json.Marshal(got.Train)
	if string(a) != string(b) {
		out = append(out, fmt.Sprintf("training config %s, pinned %s", b, a))
	}
	if got.Table != want.Table {
		out = append(out, fmt.Sprintf("learned table sha256 %s, pinned %s", got.Table, want.Table))
	}
	if got.Digest != want.Digest {
		out = append(out, fmt.Sprintf("scenario sha256 %s, pinned %s", got.Digest, want.Digest))
	}
	g, w := got.Counters, want.Counters
	if !withEvents {
		g.Events = w.Events
	}
	if g != w {
		out = append(out, fmt.Sprintf("work counters %+v, pinned %+v", g, w))
	}
	return out
}
