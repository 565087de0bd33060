package workload

import "fmt"

// benchSpec is the per-benchmark template the 100-trace suite is built
// from. Phases derive from the template with deterministic variation.
type benchSpec struct {
	name      string
	cat       Category
	phases    int
	sensitive int // how many of the phases are cache-sensitive
	mix       CompressMix

	memRatio   float64
	storeFrac  float64
	depFrac    float64
	hotLines   int
	totalLines int
	hotFrac    float64
	streamFrac float64
	reuseFrac  float64
	reuseWin   int
	writeChurn float64
}

// kLine is lines per MB of footprint (64 B lines).
const kLine = (1 << 20) / 64

// suite is the Table I census: 30 FSPEC, 29 ISPEC, 14 Productivity and
// 27 Client traces; 60 cache-sensitive in total, ten of which
// (CactusADM, Calculix, 3DMark) compress poorly. Footprints are sized
// against the 2 MB single-thread LLC: sensitive traces overflow it by
// 1.5-6x, insensitive ones either fit inside the L2/LLC or stream with
// no reuse.
var suite = []benchSpec{
	// SPECCPU 2006 FP.
	{name: "cactusadm", cat: FSPEC, phases: 4, sensitive: 4, mix: Unfriendly(),
		memRatio: 0.34, storeFrac: 0.28, depFrac: 0.10, hotLines: 36864, totalLines: 73728, hotFrac: 0.42, reuseFrac: 0.32, reuseWin: 36000, streamFrac: 0.08, writeChurn: 0.15},
	{name: "milc", cat: FSPEC, phases: 3, sensitive: 1, mix: Friendly(),
		memRatio: 0.36, storeFrac: 0.25, depFrac: 0.06, hotLines: 9 * kLine, totalLines: 20 * kLine, hotFrac: 0.32, reuseFrac: 0.15, reuseWin: 32000, streamFrac: 0.45, writeChurn: 0.10},
	{name: "lbm", cat: FSPEC, phases: 4, sensitive: 3, mix: Friendly(),
		memRatio: 0.38, storeFrac: 0.35, depFrac: 0.04, hotLines: 9 * kLine, totalLines: 18 * kLine, hotFrac: 0.36, reuseFrac: 0.12, reuseWin: 24000, streamFrac: 0.40, writeChurn: 0.12},
	{name: "wrf", cat: FSPEC, phases: 3, sensitive: 2, mix: Friendly(),
		memRatio: 0.30, storeFrac: 0.22, depFrac: 0.08, hotLines: 40960, totalLines: 81920, hotFrac: 0.40, reuseFrac: 0.30, reuseWin: 36000, streamFrac: 0.08, writeChurn: 0.08},
	{name: "sphinx3", cat: FSPEC, phases: 4, sensitive: 2, mix: Friendly(),
		memRatio: 0.33, storeFrac: 0.12, depFrac: 0.12, hotLines: 38912, totalLines: 77824, hotFrac: 0.42, reuseFrac: 0.30, reuseWin: 40000, streamFrac: 0.08, writeChurn: 0.05},
	{name: "gemsfdtd", cat: FSPEC, phases: 3, sensitive: 2, mix: Friendly(),
		memRatio: 0.37, storeFrac: 0.30, depFrac: 0.05, hotLines: 9 * kLine, totalLines: 20 * kLine, hotFrac: 0.34, reuseFrac: 0.15, reuseWin: 28000, streamFrac: 0.42, writeChurn: 0.10},
	{name: "soplex", cat: FSPEC, phases: 4, sensitive: 3, mix: Friendly(),
		memRatio: 0.35, storeFrac: 0.20, depFrac: 0.18, hotLines: 40960, totalLines: 81920, hotFrac: 0.40, reuseFrac: 0.32, reuseWin: 40000, streamFrac: 0.08, writeChurn: 0.08},
	{name: "calculix", cat: FSPEC, phases: 3, sensitive: 3, mix: Unfriendly(),
		memRatio: 0.31, storeFrac: 0.24, depFrac: 0.09, hotLines: 38912, totalLines: 77824, hotFrac: 0.42, reuseFrac: 0.32, reuseWin: 36000, streamFrac: 0.08, writeChurn: 0.12},
	{name: "bwaves", cat: FSPEC, phases: 2, sensitive: 0, mix: Friendly(),
		memRatio: 0.40, storeFrac: 0.25, depFrac: 0.03, hotLines: kLine / 2, totalLines: 24 * kLine, hotFrac: 0.05, reuseFrac: 0.00, reuseWin: 0, streamFrac: 0.92, writeChurn: 0.05},

	// SPECCPU 2006 Integer.
	{name: "xalancbmk", cat: ISPEC, phases: 4, sensitive: 3, mix: Friendly(),
		memRatio: 0.32, storeFrac: 0.18, depFrac: 0.30, hotLines: 43008, totalLines: 86016, hotFrac: 0.40, reuseFrac: 0.34, reuseWin: 44000, streamFrac: 0.08, writeChurn: 0.10},
	{name: "sjeng", cat: ISPEC, phases: 4, sensitive: 0, mix: Friendly(),
		memRatio: 0.24, storeFrac: 0.20, depFrac: 0.22, hotLines: 2 * kLine / 8, totalLines: kLine, hotFrac: 0.60, reuseFrac: 0.30, reuseWin: 8000, streamFrac: 0.02, writeChurn: 0.10},
	{name: "gobmk", cat: ISPEC, phases: 4, sensitive: 1, mix: Friendly(),
		memRatio: 0.26, storeFrac: 0.22, depFrac: 0.24, hotLines: 6 * kLine, totalLines: 12 * kLine, hotFrac: 0.35, reuseFrac: 0.30, reuseWin: 16000, streamFrac: 0.05, writeChurn: 0.10},
	{name: "omnetpp", cat: ISPEC, phases: 4, sensitive: 4, mix: Friendly(),
		memRatio: 0.34, storeFrac: 0.26, depFrac: 0.34, hotLines: 9 * kLine, totalLines: 20 * kLine, hotFrac: 0.20, reuseFrac: 0.35, reuseWin: 44000, streamFrac: 0.06, writeChurn: 0.12},
	{name: "astar", cat: ISPEC, phases: 3, sensitive: 3, mix: Friendly(),
		memRatio: 0.30, storeFrac: 0.16, depFrac: 0.38, hotLines: 38912, totalLines: 77824, hotFrac: 0.40, reuseFrac: 0.35, reuseWin: 40000, streamFrac: 0.08, writeChurn: 0.08},
	{name: "gcc", cat: ISPEC, phases: 4, sensitive: 2, mix: Friendly(),
		memRatio: 0.28, storeFrac: 0.24, depFrac: 0.20, hotLines: 36864, totalLines: 73728, hotFrac: 0.42, reuseFrac: 0.32, reuseWin: 36000, streamFrac: 0.08, writeChurn: 0.15},
	{name: "libquantum", cat: ISPEC, phases: 3, sensitive: 2, mix: Friendly(),
		memRatio: 0.33, storeFrac: 0.30, depFrac: 0.05, hotLines: 9 * kLine, totalLines: 18 * kLine, hotFrac: 0.38, reuseFrac: 0.10, reuseWin: 16000, streamFrac: 0.45, writeChurn: 0.04},
	{name: "mcf", cat: ISPEC, phases: 3, sensitive: 3, mix: Friendly(),
		memRatio: 0.38, storeFrac: 0.14, depFrac: 0.42, hotLines: 11 * kLine, totalLines: 24 * kLine, hotFrac: 0.22, reuseFrac: 0.30, reuseWin: 48000, streamFrac: 0.03, writeChurn: 0.06},

	// Productivity.
	{name: "sysmark", cat: Productivity, phases: 5, sensitive: 3, mix: Friendly(),
		memRatio: 0.27, storeFrac: 0.28, depFrac: 0.22, hotLines: 40960, totalLines: 81920, hotFrac: 0.40, reuseFrac: 0.32, reuseWin: 36000, streamFrac: 0.08, writeChurn: 0.15},
	{name: "winrar", cat: Productivity, phases: 5, sensitive: 3, mix: Friendly(),
		memRatio: 0.31, storeFrac: 0.32, depFrac: 0.16, hotLines: 8 * kLine, totalLines: 14 * kLine, hotFrac: 0.26, reuseFrac: 0.28, reuseWin: 24000, streamFrac: 0.25, writeChurn: 0.20},
	{name: "wincompress", cat: Productivity, phases: 4, sensitive: 2, mix: Friendly(),
		memRatio: 0.29, storeFrac: 0.30, depFrac: 0.14, hotLines: 36864, totalLines: 73728, hotFrac: 0.42, reuseFrac: 0.28, reuseWin: 32000, streamFrac: 0.08, writeChurn: 0.18},

	// Client.
	{name: "octane", cat: Client, phases: 7, sensitive: 4, mix: Friendly(),
		memRatio: 0.26, storeFrac: 0.26, depFrac: 0.28, hotLines: 8 * kLine, totalLines: 16 * kLine, hotFrac: 0.22, reuseFrac: 0.34, reuseWin: 36000, streamFrac: 0.08, writeChurn: 0.14},
	{name: "speechrec", cat: Client, phases: 7, sensitive: 4, mix: Friendly(),
		memRatio: 0.30, storeFrac: 0.18, depFrac: 0.18, hotLines: 8 * kLine, totalLines: 18 * kLine, hotFrac: 0.25, reuseFrac: 0.28, reuseWin: 36000, streamFrac: 0.20, writeChurn: 0.08},
	{name: "cinebench", cat: Client, phases: 7, sensitive: 3, mix: Friendly(),
		memRatio: 0.28, storeFrac: 0.20, depFrac: 0.10, hotLines: 38912, totalLines: 77824, hotFrac: 0.42, reuseFrac: 0.26, reuseWin: 32000, streamFrac: 0.08, writeChurn: 0.10},
	{name: "3dmark", cat: Client, phases: 6, sensitive: 3, mix: Unfriendly(),
		memRatio: 0.32, storeFrac: 0.24, depFrac: 0.08, hotLines: 8 * kLine, totalLines: 16 * kLine, hotFrac: 0.28, reuseFrac: 0.25, reuseWin: 32000, streamFrac: 0.30, writeChurn: 0.12},
}

// insensitiveShape rewrites a profile so it barely reacts to LLC size:
// either the footprint collapses into the L2, or (for streaming
// templates) reuse disappears entirely.
func insensitiveShape(p *Profile, streaming bool) {
	if streaming {
		p.HotLines = kLine / 8
		p.TotalLines = 24 * kLine
		p.HotFrac = 0.05
		p.StreamFrac = 0.92
		p.ReuseFrac = 0
		p.ReuseWindow = 0
		p.DepFrac *= 0.3
	} else {
		p.HotLines = 1024   // 64 KB
		p.TotalLines = 3072 // 192 KB, inside the 256 KB L2
		p.HotFrac = 0.85
		p.ReuseFrac = 0.1
		p.ReuseWindow = 4000
	}
}

// vary perturbs a value by up to +/-frac deterministically. The
// float64(...) conversions keep each product (the division by 2^52
// compiles to one) out of a fused multiply-add, so every architecture
// rounds alike.
func vary(v float64, frac float64, h uint64) float64 {
	u := float64(float64(splitmix64(h)>>11)/(1<<52)) - 1 // [-1, 1)
	return v * (1 + float64(frac*u))
}

// Suite returns the 100-trace workload suite. Profiles are
// deterministic: the same index always yields the same generator and
// value model.
func Suite() []Profile {
	var out []Profile
	for bi, b := range suite {
		for ph := 0; ph < b.phases; ph++ {
			h := splitmix64(uint64(bi)<<16 | uint64(ph))
			p := Profile{
				Name:        fmt.Sprintf("%s.p%d", b.name, ph+1),
				Category:    b.cat,
				Seed:        h,
				MemRatio:    vary(b.memRatio, 0.10, h+1),
				StoreFrac:   vary(b.storeFrac, 0.15, h+2),
				DepFrac:     vary(b.depFrac, 0.15, h+3),
				HotLines:    int(vary(float64(b.hotLines), 0.25, h+4)),
				TotalLines:  int(vary(float64(b.totalLines), 0.25, h+5)),
				HotFrac:     vary(b.hotFrac, 0.08, h+6),
				StreamFrac:  vary(b.streamFrac, 0.10, h+7),
				ReuseFrac:   b.reuseFrac,
				ReuseWindow: b.reuseWin,
				Mix:         b.mix,
				WriteChurn:  b.writeChurn,
				Sensitive:   ph < b.sensitive,
			}
			if !p.Sensitive {
				// Alternate the two insensitive shapes per phase.
				insensitiveShape(&p, (ph+bi)%2 == 0)
			}
			if p.HotLines < 64 {
				p.HotLines = 64
			}
			if p.TotalLines <= p.HotLines {
				p.TotalLines = p.HotLines * 2
			}
			out = append(out, p)
		}
	}
	return out
}

// Sensitive filters the suite down to the 60 cache-sensitive traces
// used for the headline results.
func Sensitive(all []Profile) []Profile {
	var out []Profile
	for _, p := range all {
		if p.Sensitive {
			out = append(out, p)
		}
	}
	return out
}

// CompressionFriendly splits sensitive traces by their value mix: the
// paper's "compression friendly" set is the 50 sensitive traces whose
// average block compresses below 75% of raw size.
func CompressionFriendly(all []Profile) (friendly, unfriendly []Profile) {
	for _, p := range all {
		if !p.Sensitive {
			continue
		}
		if p.Mix == Unfriendly() {
			unfriendly = append(unfriendly, p)
		} else {
			friendly = append(friendly, p)
		}
	}
	return friendly, unfriendly
}

// ByName finds a profile.
func ByName(all []Profile, name string) (Profile, bool) {
	for _, p := range all {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Mixes returns the 20 four-way multi-program mixes (Section V).
// Mixes combine representative sensitive traces across categories,
// with a few insensitive fillers mirroring the paper's methodology of
// mixing representative traces from the workload categories.
func Mixes() [][4]string {
	return [][4]string{
		{"mcf.p1", "omnetpp.p1", "cactusadm.p1", "sphinx3.p1"},
		{"xalancbmk.p1", "soplex.p1", "lbm.p1", "octane.p1"},
		{"astar.p1", "gemsfdtd.p1", "winrar.p1", "speechrec.p1"},
		{"omnetpp.p2", "mcf.p2", "soplex.p2", "calculix.p1"},
		{"libquantum.p1", "wrf.p1", "sysmark.p1", "3dmark.p1"},
		{"mcf.p3", "xalancbmk.p2", "octane.p2", "cinebench.p1"},
		{"soplex.p3", "lbm.p2", "speechrec.p2", "gcc.p1"},
		{"omnetpp.p3", "astar.p2", "milc.p1", "winrar.p2"},
		{"cactusadm.p2", "calculix.p2", "3dmark.p2", "mcf.p1"},
		{"sysmark.p2", "wincompress.p1", "xalancbmk.p3", "sphinx3.p2"},
		{"lbm.p3", "gemsfdtd.p2", "libquantum.p2", "omnetpp.p4"},
		{"octane.p3", "speechrec.p3", "cinebench.p2", "astar.p3"},
		{"wrf.p2", "soplex.p1", "winrar.p3", "gobmk.p1"},
		{"mcf.p2", "cactusadm.p3", "sysmark.p3", "octane.p4"},
		{"xalancbmk.p1", "omnetpp.p1", "mcf.p3", "astar.p1"},
		{"calculix.p3", "3dmark.p3", "cactusadm.p4", "soplex.p2"},
		{"lbm.p1", "libquantum.p1", "gemsfdtd.p1", "milc.p1"},
		{"speechrec.p4", "cinebench.p3", "octane.p1", "sysmark.p1"},
		{"gcc.p2", "xalancbmk.p2", "soplex.p4", "omnetpp.p2"},
		{"mcf.p1", "lbm.p2", "cactusadm.p1", "speechrec.p1"},
	}
}
