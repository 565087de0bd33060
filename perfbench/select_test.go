package main

import (
	"reflect"
	"testing"

	"basevictim/internal/trace"
	"basevictim/internal/workload"
)

var simWorkloads = []string{"sim-reuse", "sim-l2resident", "sim-stream"}

// ops draws the first n ops of every selected trace.
func ops(sel selection, n int) [][]trace.Op {
	var out [][]trace.Op
	for _, p := range sel.singles {
		g := p.Stream()
		var s []trace.Op
		for i := 0; i < n; i++ {
			op, _ := g.Next()
			s = append(s, op)
		}
		out = append(out, s)
	}
	return out
}

func TestSameSeedSameTraces(t *testing.T) {
	for _, name := range simWorkloads {
		a, err := selectTraces(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := selectTraces(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ops(a, 1000), ops(b, 1000)) {
			t.Errorf("%s: seed 7 chose different traces twice", name)
		}
	}
}

func TestAnotherSeedGivesOtherTraces(t *testing.T) {
	for _, name := range simWorkloads {
		a, _ := selectTraces(name, 1)
		b, _ := selectTraces(name, 2)
		if !reflect.DeepEqual(a.names(), b.names()) {
			t.Errorf("%s: the properties, hence the trace names, must not depend on the seed", name)
		}
		oa, ob := ops(a, 1000), ops(b, 1000)
		for i := range oa {
			if reflect.DeepEqual(oa[i], ob[i]) {
				t.Errorf("%s: seeds 1 and 2 generated the same %s stream", name, a.singles[i].Name)
			}
		}
	}
}

func TestSelectedTracesHaveTheirProperty(t *testing.T) {
	check := func(name string, p workload.Profile, ok bool) {
		t.Helper()
		if !ok {
			t.Errorf("%s: %s (%s) lacks the workload's property", name, p.Name, p.Category)
		}
	}
	for _, name := range simWorkloads {
		sel, err := selectTraces(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range sel.singles {
			switch {
			case name == "sim-reuse" && i < len(categories):
				check(name, p, reuseFriendly(p) && p.Category == categories[i])
			case name == "sim-reuse":
				check(name, p, reuseUnfriendly(p))
			case name == "sim-l2resident":
				check(name, p, l2Resident(p) && p.Category == categories[i])
			default:
				check(name, p, streaming(p) && p.Category == categories[i])
			}
		}
		if (name == "sim-reuse") != (sel.mix != nil) {
			t.Errorf("%s: only sim-reuse runs a mix", name)
		}
	}
	names, err := serveTraces()
	if err != nil || len(names) != 4 {
		t.Fatalf("serve-open traces %v, %v", names, err)
	}
}
