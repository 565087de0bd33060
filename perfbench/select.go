package main

import (
	"fmt"

	"basevictim/internal/workload"
)

// The L2 and LLC sizes the simulator models (hierarchy.DefaultConfig,
// sim.Default).
const (
	l2Bytes  = 256 << 10
	llcBytes = 2 << 20
)

// splitmix64 scrambles a seed; the benchmark's only source of choice, so
// one seed always yields the same inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

var categories = []workload.Category{workload.FSPEC, workload.ISPEC, workload.Productivity, workload.Client}

// reuseFriendly: LLC-sensitive, compression-friendly and reuse-driven
// (little streaming), the traces whose re-references Base-Victim's
// victim partition catches.
func reuseFriendly(p workload.Profile) bool {
	return p.Sensitive && p.Mix == workload.Friendly() && p.StreamFrac <= 0.1
}

// reuseUnfriendly: LLC-sensitive but compressing poorly.
func reuseUnfriendly(p workload.Profile) bool {
	return p.Sensitive && p.Mix == workload.Unfriendly()
}

// l2Resident: insensitive traces whose whole footprint fits the L2 and
// that barely stream, so the LLC sees almost no traffic.
func l2Resident(p workload.Profile) bool {
	return !p.Sensitive && p.TotalLines*64 <= l2Bytes && p.StreamFrac <= 0.1
}

// streaming: insensitive traces that stream a footprint far larger
// than the LLC with no reuse.
func streaming(p workload.Profile) bool {
	return !p.Sensitive && p.StreamFrac >= 0.9 && p.ReuseFrac == 0 && p.TotalLines*64 >= 8*llcBytes
}

// first returns the first suite trace with the property.
func first(all []workload.Profile, keep func(workload.Profile) bool) (workload.Profile, error) {
	for _, p := range all {
		if keep(p) {
			return p, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("no trace has the property")
}

// reseed derives the workload seed's instance of a trace: same name and
// properties, a different generated instruction stream and line
// contents. Fixing the traces by property and varying only their
// streams keeps one workload's cost the same from seed to seed, so the
// spread between seeds measures the host, not the trace choice.
func reseed(p workload.Profile, seed uint64) workload.Profile {
	p.Seed = splitmix64(p.Seed ^ splitmix64(seed))
	return p
}

// selection is what one seed chooses for a sim workload: the
// single-thread traces and, for sim-reuse, one four-way mix.
type selection struct {
	singles []workload.Profile
	mix     *[4]workload.Profile
}

// names lists the selected traces, for the run header.
func (s selection) names() []string {
	var out []string
	for _, p := range s.singles {
		out = append(out, p.Name)
	}
	if s.mix != nil {
		m := s.mix
		out = append(out, "mix("+m[0].Name+"+"+m[1].Name+"+"+m[2].Name+"+"+m[3].Name+")")
	}
	return out
}

// selectTraces chooses a sim workload's traces by property and derives
// the seed's instance of each. sim-reuse and sim-l2resident take one
// trace per category; sim-reuse adds a compression-unfriendly trace and
// the first four-way mix of the suite.
func selectTraces(name string, seed uint64) (selection, error) {
	all := workload.Suite()
	var props []func(workload.Profile) bool
	switch name {
	case "sim-reuse":
		props = append(perCategory(reuseFriendly), reuseUnfriendly)
	case "sim-l2resident":
		props = perCategory(l2Resident)
	case "sim-stream":
		// Two streaming traces from different categories.
		props = perCategory(streaming)[:2]
	default:
		return selection{}, fmt.Errorf("unknown sim workload %q", name)
	}
	var sel selection
	for _, keep := range props {
		p, err := first(all, keep)
		if err != nil {
			return sel, fmt.Errorf("%s: %w", name, err)
		}
		sel.singles = append(sel.singles, reseed(p, seed))
	}
	if name == "sim-reuse" {
		var m [4]workload.Profile
		for i, n := range workload.Mixes()[0] {
			p, ok := workload.ByName(all, n)
			if !ok {
				return sel, fmt.Errorf("mix names unknown trace %q", n)
			}
			m[i] = reseed(p, seed)
		}
		sel.mix = &m
	}
	return sel, nil
}

// perCategory narrows a property to each category in turn.
func perCategory(keep func(workload.Profile) bool) []func(workload.Profile) bool {
	var out []func(workload.Profile) bool
	for _, c := range categories {
		out = append(out, func(p workload.Profile) bool { return p.Category == c && keep(p) })
	}
	return out
}

// serveTraces names serve-open's traces: one of each kind the sim
// workloads run. bvsimd simulates suite traces by name, so these are
// not reseeded; the seed varies serve-open's request schedule instead.
func serveTraces() ([]string, error) {
	var out []string
	for _, keep := range []func(workload.Profile) bool{reuseFriendly, reuseUnfriendly, l2Resident, streaming} {
		p, err := first(workload.Suite(), keep)
		if err != nil {
			return nil, fmt.Errorf("serve-open: %w", err)
		}
		out = append(out, p.Name)
	}
	return out, nil
}
