// Package hw models the heterogeneous embedded platforms the paper
// evaluates on: multi-core CPU clusters with per-cluster DVFS, GPUs and
// NPUs, cluster power models, and a lumped RC thermal model.
//
// The paper's experiments ran on physical boards (Odroid XU3, Jetson Nano)
// with power sensors. This package substitutes analytic models whose
// constants are least-squares fitted to the paper's own Table I
// measurements (see catalog.go for the fits), so every downstream
// experiment exercises the same decision logic against the same numbers
// the paper reports.
package hw

import (
	"fmt"
	"math"
)

// CoreType identifies the kind of computing resource a cluster provides.
type CoreType string

// Core types appearing in the paper's platforms (Fig 1, Fig 2, Table I).
const (
	CoreA7  CoreType = "A7"  // Arm Cortex-A7 LITTLE CPU
	CoreA15 CoreType = "A15" // Arm Cortex-A15 big CPU
	CoreA57 CoreType = "A57" // Arm Cortex-A57 CPU (Jetson Nano)
	CoreBig CoreType = "BIG" // generic big CPU (flagship SoC)
	CoreLit CoreType = "LIT" // generic LITTLE CPU (flagship SoC)
	CoreGPU CoreType = "GPU"
	CoreNPU CoreType = "NPU"
	CoreDSP CoreType = "DSP"
)

// IsAccelerator reports whether the core type is a non-CPU accelerator.
func (t CoreType) IsAccelerator() bool {
	switch t {
	case CoreGPU, CoreNPU, CoreDSP:
		return true
	}
	return false
}

// OPP is one operating performance point of a voltage/frequency domain.
type OPP struct {
	FreqGHz  float64
	VoltageV float64
}

// PowerParams parametrise the cluster power model
//
//	P_busy = Ceff·V²·f·(activeCores/Cores)·util + Static
//	P_idle = Static
//
// with P in mW, V in volts, f in GHz. Ceff and Static are fitted to
// Table I of the paper (catalog.go documents each fit).
type PowerParams struct {
	CeffMWPerV2GHz float64
	StaticMW       float64
}

// Cluster is one voltage/frequency domain containing homogeneous cores
// (or one accelerator). All cores in a cluster share the OPP — the paper's
// observation that a core may be "available at a lower voltage/frequency
// due to other computing cores executing in the same voltage/frequency
// domain" falls out of this structure.
type Cluster struct {
	Name  string
	Type  CoreType
	Cores int
	OPPs  []OPP // ascending frequency
	Power PowerParams

	// RateMACsPerSecGHz is the effective multiply-accumulate throughput of
	// the whole cluster per GHz of clock, fitted from Table I latencies.
	RateMACsPerSecGHz float64
	// ParallelAlpha is the core-scaling exponent: allocating n of Cores
	// cores yields (n/Cores)^ParallelAlpha of the cluster rate. Catalog
	// clusters precompute that fraction per n (see EffectiveRate); the
	// field stays writable, and a changed value bypasses the table.
	ParallelAlpha float64
	// FixedOverheadS is per-inference fixed time (pre/post-processing).
	FixedOverheadS float64
	// CompanionUtil is the utilisation an inference on this cluster
	// induces on a paired CPU cluster (accelerators need a host CPU for
	// pre-processing — the Jetson "GPU + A57" rows of Table I).
	CompanionUtil float64
	// CompanionName names the paired CPU cluster ("" = none).
	CompanionName string
	// MemBytes is accelerator-local memory (NPU SRAM); 0 means the
	// cluster uses shared DRAM with no co-location capacity constraint.
	MemBytes int64

	// scale[n] caches (n/scaleCores)^scaleAlpha for n = 1..scaleCores,
	// filled by fillScale. A fixed array, so building a cluster costs no
	// extra allocation; scaleCores == 0 means no table.
	scale      [maxScaleCores + 1]float64
	scaleCores int
	scaleAlpha float64
}

// maxScaleCores is the largest core count fillScale tabulates: the
// catalog's largest cluster. Bigger clusters always take EffectiveRate's
// math.Pow path.
const maxScaleCores = 4

// fillScale tabulates the core-scaling fraction for the cluster's current
// Cores and ParallelAlpha, recording both so EffectiveRate can tell when
// the table no longer describes the cluster.
func (c *Cluster) fillScale() {
	if c.Cores < 1 || c.Cores > maxScaleCores {
		return
	}
	for n := 1; n <= c.Cores; n++ {
		c.scale[n] = math.Pow(float64(n)/float64(c.Cores), c.ParallelAlpha)
	}
	c.scaleCores, c.scaleAlpha = c.Cores, c.ParallelAlpha
}

// Validate reports structural errors in the cluster description.
func (c *Cluster) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("hw: cluster with empty name")
	case c.Cores < 1:
		return fmt.Errorf("hw: cluster %s has %d cores", c.Name, c.Cores)
	case len(c.OPPs) == 0:
		return fmt.Errorf("hw: cluster %s has no OPPs", c.Name)
	case c.RateMACsPerSecGHz <= 0:
		return fmt.Errorf("hw: cluster %s has non-positive rate", c.Name)
	case c.ParallelAlpha <= 0 || c.ParallelAlpha > 1:
		return fmt.Errorf("hw: cluster %s parallel alpha %f outside (0,1]", c.Name, c.ParallelAlpha)
	}
	prev := 0.0
	for i, o := range c.OPPs {
		if o.FreqGHz <= prev {
			return fmt.Errorf("hw: cluster %s OPP %d not ascending", c.Name, i)
		}
		if o.VoltageV <= 0 {
			return fmt.Errorf("hw: cluster %s OPP %d voltage %f", c.Name, i, o.VoltageV)
		}
		prev = o.FreqGHz
	}
	return nil
}

// MinOPP returns the lowest-frequency operating point.
func (c *Cluster) MinOPP() OPP { return c.OPPs[0] }

// MaxOPP returns the highest-frequency operating point.
func (c *Cluster) MaxOPP() OPP { return c.OPPs[len(c.OPPs)-1] }

// OPPIndexAtOrAbove returns the index of the slowest OPP with frequency
// >= f (clamped to the fastest OPP).
func (c *Cluster) OPPIndexAtOrAbove(fGHz float64) int {
	for i, o := range c.OPPs {
		if o.FreqGHz >= fGHz-1e-9 {
			return i
		}
	}
	return len(c.OPPs) - 1
}

// NearestOPPIndex returns the index of the OPP closest in frequency to f.
func (c *Cluster) NearestOPPIndex(fGHz float64) int {
	best, bestD := 0, math.Inf(1)
	for i, o := range c.OPPs {
		d := math.Abs(o.FreqGHz - fGHz)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// EffectiveRate returns the MAC/s throughput when n of the cluster's cores
// run at the given OPP. Accelerators always use n == Cores.
//
// The core-scaling fraction (n/Cores)^ParallelAlpha comes from the table
// the catalog constructors fill, but only while the Cores and
// ParallelAlpha it was built for still equal the cluster's fields;
// otherwise (a hand-built cluster, more than maxScaleCores cores, or a
// field changed after construction) it is computed with math.Pow. The
// table holds the result of that same expression on the same inputs, so
// both paths return identical bits.
//
//detlint:hotpath
func (c *Cluster) EffectiveRate(opp OPP, n int) float64 {
	if n < 1 {
		return 0
	}
	if n > c.Cores {
		n = c.Cores
	}
	var frac float64
	if c.scaleCores != 0 && c.scaleCores == c.Cores && c.scaleAlpha == c.ParallelAlpha {
		frac = c.scale[n]
	} else {
		frac = math.Pow(float64(n)/float64(c.Cores), c.ParallelAlpha)
	}
	return c.RateMACsPerSecGHz * opp.FreqGHz * frac
}

// BusyPowerMW returns cluster power with n cores active at the given
// utilisation (0..1), in mW.
func (c *Cluster) BusyPowerMW(opp OPP, n int, util float64) float64 {
	if n > c.Cores {
		n = c.Cores
	}
	if n < 0 {
		n = 0
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	dyn := c.Power.CeffMWPerV2GHz * opp.VoltageV * opp.VoltageV * opp.FreqGHz *
		(float64(n) / float64(c.Cores)) * util
	return dyn + c.Power.StaticMW
}

// IdlePowerMW returns cluster power with no work (static leakage only).
func (c *Cluster) IdlePowerMW() float64 { return c.Power.StaticMW }

// Platform is a complete SoC/board: a set of clusters sharing a thermal
// envelope and DRAM.
type Platform struct {
	Name     string
	Clusters []*Cluster
	Thermal  ThermalParams
	AmbientC float64
}

// Validate checks the platform and all clusters.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hw: platform with empty name")
	}
	if len(p.Clusters) == 0 {
		return fmt.Errorf("hw: platform %s has no clusters", p.Name)
	}
	seen := map[string]bool{}
	for _, c := range p.Clusters {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("hw: platform %s duplicate cluster %s", p.Name, c.Name)
		}
		seen[c.Name] = true
	}
	for _, c := range p.Clusters {
		if c.CompanionName != "" && p.Cluster(c.CompanionName) == nil {
			return fmt.Errorf("hw: cluster %s references unknown companion %s", c.Name, c.CompanionName)
		}
	}
	return p.Thermal.Validate()
}

// Cluster returns the named cluster, or nil.
func (p *Platform) Cluster(name string) *Cluster {
	for _, c := range p.Clusters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ClustersOfType returns all clusters of the given core type.
func (p *Platform) ClustersOfType(t CoreType) []*Cluster {
	var out []*Cluster
	for _, c := range p.Clusters {
		if c.Type == t {
			out = append(out, c)
		}
	}
	return out
}

// Companion resolves a cluster's companion CPU cluster, or nil.
func (p *Platform) Companion(c *Cluster) *Cluster {
	if c.CompanionName == "" {
		return nil
	}
	return p.Cluster(c.CompanionName)
}
