package sim

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"basevictim/internal/golden"
	"basevictim/internal/obs"
	"basevictim/internal/workload"
)

// goldenRun is what a golden file pins for one run: the full result,
// obs snapshot included, and the decision events left in the run's
// 256-event ring.
type goldenRun struct {
	Result any         `json:"result"`
	Events []obs.Event `json:"events"`
}

// observedCtx attaches a fresh registry and a 256-event ring.
func observedCtx() (context.Context, *obs.Ring) {
	ring := obs.NewRing(256)
	return WithObserver(context.Background(), &Observer{Registry: obs.NewRegistry(), Ring: ring}), ring
}

func checkGoldenRun(t *testing.T, name string, res any, ring *obs.Ring) {
	t.Helper()
	b, err := json.MarshalIndent(goldenRun{Result: res, Events: ring.Events()}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", name+".json"), append(b, '\n'))
}

// TestGoldenSingle pins a run of every organization on an
// LLC-sensitive trace against committed results.
func TestGoldenSingle(t *testing.T) {
	p := sensitiveTrace(t)
	for _, org := range OrgKinds() {
		t.Run(org, func(t *testing.T) {
			ctx, ring := observedCtx()
			res, err := RunSingleCtx(ctx, p, quickCfg(OrgKind(org)))
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenRun(t, "single-"+org, res, ring)
		})
	}
}

// TestGoldenChecked pins a run under the full lockstep checker, where
// the hierarchy drives a *check.Checker wrapping the organization.
func TestGoldenChecked(t *testing.T) {
	cfg := quickCfg(OrgBaseVictim)
	cfg.Check = "full"
	ctx, ring := observedCtx()
	res, err := RunSingleCtx(ctx, sensitiveTrace(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenRun(t, "checked-basevictim", res, ring)
}

// TestGoldenMix pins a 4-thread mix: shared-LLC contention,
// back-invalidation broadcast and per-core address offsets.
func TestGoldenMix(t *testing.T) {
	var mix [4]workload.Profile
	for i, name := range []string{"mcf.p1", "soplex.p1", "lbm.p1", "milc.p1"} {
		p, ok := workload.ByName(workload.Suite(), name)
		if !ok {
			t.Fatalf("trace %s missing", name)
		}
		mix[i] = p
	}
	cfg := quickCfg(OrgBaseVictim)
	cfg.Instructions = 60_000
	ctx, ring := observedCtx()
	res, err := RunMixCtx(ctx, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenRun(t, "mix-basevictim", res, ring)
}
