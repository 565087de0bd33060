package main

import "time"

// The host-speed probe. On a shared machine the host's speed drifts by
// tens of percent over minutes, far more than a change worth measuring.
// The probe is a fixed piece of work that runs no code of the
// repository: a dependent walk through a 4 MB random cycle, mixing
// cache-missing loads with multiplies as the simulator does. The sim-*
// workloads run it before every simulation and report MIPS and
// simulation latency at the reference speed: scaled by probeRef over
// the run's median probe time. On the reference host this halved the
// seed-to-seed spread in noisy spells (30% to 15%) and cost a few
// percent in quiet ones. The unscaled figures are printed beside them.
// Each probe follows a forced garbage collection (timedRounds), so the
// probe never pays for garbage the simulator left, and a change that
// allocates more cannot slow the probe and so raise its own figures.
const (
	probeSlots = 1 << 20
	probeSteps = 1 << 17
	// probeRef is the probe's median time on the reference host, a
	// 2-vCPU Xeon VM at 2.1 GHz, in a quiet spell.
	probeRef = 10500 * time.Microsecond
)

// prober owns the probe's walk and the times it took.
type prober struct {
	next  []uint32
	times []float64 // ns
}

func newProber() *prober {
	next := make([]uint32, probeSlots)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle through every slot.
	s := uint64(0)
	for i := probeSlots - 1; i > 0; i-- {
		s = splitmix64(s)
		j := int(s % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &prober{next: next}
}

// probe times one walk and keeps the time.
func (p *prober) probe() {
	t0 := time.Now()
	i, acc := uint32(0), uint64(1)
	for k := 0; k < probeSteps; k++ {
		i = p.next[i]
		acc = acc*6364136223846793005 + uint64(i)
	}
	p.times = append(p.times, float64(time.Since(t0)))
	sink ^= acc
}

// factor turns a timing taken in this run into one at the reference
// speed.
func (p *prober) factor() float64 { return float64(probeRef) / median(p.times) }
