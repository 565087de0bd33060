package serve

// Deterministic fault injection for the service's chaos harness. A
// chaos spec names which job attempts misbehave, by 1-based attempt
// index counted service-wide, so a test (or the CI chaos job) can
// script an exact failure sequence and assert the recovery path — no
// sleeps, no probability. An attempt runs on a fresh or a reused
// worker; the fault lands on whichever process runs it, and that
// process is never reused.
//
// Grammar: comma-separated directives.
//
//	kill@N    SIGKILL the worker running the Nth attempt after its
//	          first heartbeat
//	stall@N   the Nth attempt heartbeats once, then hangs forever
//	          (the supervisor's hung-run detector must kill it)
//	kill%N    kill every Nth attempt (kill%1 = kill them all)
//	stall%N   stall every Nth attempt
//
// Directives compose: "kill@1,stall@2" fails the first two attempts
// in different ways; the third, clean, attempt must then succeed.

import (
	"fmt"
	"strconv"
	"strings"
)

type chaosAction int

const (
	chaosNone chaosAction = iota
	chaosKill
	chaosStall
)

type chaosSpec struct {
	killAt     map[int]bool
	stallAt    map[int]bool
	killEvery  int
	stallEvery int
}

// parseChaos parses a spec; "" yields nil (no chaos).
func parseChaos(s string) (*chaosSpec, error) {
	if s == "" {
		return nil, nil
	}
	spec := &chaosSpec{killAt: map[int]bool{}, stallAt: map[int]bool{}}
	for _, d := range strings.Split(s, ",") {
		d = strings.TrimSpace(d)
		var (
			verb string
			at   bool
		)
		switch {
		case strings.Contains(d, "@"):
			at = true
			verb, d, _ = strings.Cut(d, "@")
		case strings.Contains(d, "%"):
			verb, d, _ = strings.Cut(d, "%")
		default:
			return nil, fmt.Errorf("chaos: directive %q: want verb@N or verb%%N", d)
		}
		n, err := strconv.Atoi(d)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("chaos: directive index %q: want a positive integer", d)
		}
		switch {
		case verb == "kill" && at:
			spec.killAt[n] = true
		case verb == "stall" && at:
			spec.stallAt[n] = true
		case verb == "kill":
			spec.killEvery = n
		case verb == "stall":
			spec.stallEvery = n
		default:
			return nil, fmt.Errorf("chaos: unknown verb %q (want kill or stall)", verb)
		}
	}
	return spec, nil
}

// action reports what (if anything) should go wrong with the given
// attempt. Kill wins when both verbs match one attempt.
func (c *chaosSpec) action(attempt int) chaosAction {
	if c == nil {
		return chaosNone
	}
	if c.killAt[attempt] || (c.killEvery > 0 && attempt%c.killEvery == 0) {
		return chaosKill
	}
	if c.stallAt[attempt] || (c.stallEvery > 0 && attempt%c.stallEvery == 0) {
		return chaosStall
	}
	return chaosNone
}
