package workload

import (
	"runtime"
	"testing"

	"basevictim/internal/compress"
	"basevictim/internal/trace"
)

func TestSuiteCensus(t *testing.T) {
	all := Suite()
	if len(all) != 100 {
		t.Fatalf("suite has %d traces, want 100 (Table I)", len(all))
	}
	counts := map[Category]int{}
	sensitive := 0
	for _, p := range all {
		counts[p.Category]++
		if p.Sensitive {
			sensitive++
		}
	}
	want := map[Category]int{FSPEC: 30, ISPEC: 29, Productivity: 14, Client: 27}
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("%v has %d traces, want %d", cat, counts[cat], n)
		}
	}
	if sensitive != 60 {
		t.Fatalf("%d sensitive traces, want 60", sensitive)
	}
	friendly, unfriendly := CompressionFriendly(all)
	if len(friendly) != 50 || len(unfriendly) != 10 {
		t.Fatalf("friendly/unfriendly = %d/%d, want 50/10", len(friendly), len(unfriendly))
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	all := Suite()
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Fatalf("duplicate trace name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if _, ok := ByName(all, "mcf.p1"); !ok {
		t.Fatal("mcf.p1 missing")
	}
	if _, ok := ByName(all, "nope"); ok {
		t.Fatal("bogus name found")
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, b := Suite(), Suite()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("suite not deterministic at %d", i)
		}
	}
	// Generators from the same profile produce identical streams.
	ga, gb := a[0].Stream(), a[0].Stream()
	for i := 0; i < 10000; i++ {
		oa, _ := ga.Next()
		ob, _ := gb.Next()
		if oa != ob {
			t.Fatalf("generator diverged at op %d", i)
		}
	}
}

func TestGeneratorShape(t *testing.T) {
	all := Suite()
	p, _ := ByName(all, "mcf.p1")
	g := p.Stream()
	var mem, store, dep, n int
	maxLine := uint64(0)
	for i := 0; i < 200000; i++ {
		op, ok := g.Next()
		if !ok {
			t.Fatal("generator ended early")
		}
		n++
		if op.Kind == trace.Exec {
			continue
		}
		mem++
		if op.Kind == trace.Store {
			store++
		}
		if op.Dep {
			dep++
		}
		if line := op.Addr / 64; line > maxLine {
			maxLine = line
		}
	}
	memFrac := float64(mem) / float64(n)
	if memFrac < p.MemRatio-0.05 || memFrac > p.MemRatio+0.05 {
		t.Fatalf("mem fraction %.3f, want ~%.3f", memFrac, p.MemRatio)
	}
	if store == 0 || dep == 0 {
		t.Fatal("no stores or no dependent loads generated")
	}
	if maxLine >= uint64(p.TotalLines) {
		t.Fatalf("address beyond footprint: line %d >= %d", maxLine, p.TotalLines)
	}
}

// TestCompressibilityCalibration checks the paper's Section VI.A
// aggregates: friendly traces ~50% (we accept 40-60%), unfriendly >75%,
// all-sensitive mean around 55% (45-65%).
func TestCompressibilityCalibration(t *testing.T) {
	all := Suite()
	friendly, unfriendly := CompressionFriendly(all)
	mean := func(ps []Profile) float64 {
		tot := 0.0
		for _, p := range ps {
			tot += p.Values().MeanCompressedRatio(2000)
		}
		return tot / float64(len(ps))
	}
	mf := mean(friendly[:10]) // sample for speed
	mu := mean(unfriendly)
	if mf < 0.40 || mf > 0.60 {
		t.Errorf("friendly mean compressed ratio %.3f, want ~0.5", mf)
	}
	if mu < 0.75 {
		t.Errorf("unfriendly mean compressed ratio %.3f, want > 0.75", mu)
	}
}

// TestValuesRoundTripThroughBDI: Segments answers exactly what BDI
// makes of the synthesized contents, for generation-0 footprint lines
// (the memoized path, asked twice so the memo answers the second time)
// and for everything sized afresh: written generations, lines past the
// footprint, and a multi-program core's offset address space.
func TestValuesRoundTripThroughBDI(t *testing.T) {
	all := Suite()
	p, _ := ByName(all, "soplex.p1")
	v := p.Values()
	bdi := compress.NewBDI()
	buf := make([]byte, compress.LineSize)
	past := uint64(p.TotalLines)
	var lines []uint64
	for line := uint64(0); line < 500; line++ {
		lines = append(lines, line, past+line, 3<<38+line)
	}
	for gen := uint32(0); gen <= 3; gen++ {
		for _, line := range lines {
			class := v.FillLine(buf, line, gen)
			wantSegs := compress.SegmentsFor(bdi.CompressedSize(buf), 4)
			if compress.IsZeroLine(buf) {
				wantSegs = 0
			}
			for range 2 {
				if segs := v.Segments(line, gen); segs != wantSegs {
					t.Fatalf("line %d gen %d class %v: Segments=%d, direct BDI=%d", line, gen, class, segs, wantSegs)
				}
			}
			// Class sanity: zero lines must really be zero.
			if class == VZero && !compress.IsZeroLine(buf) {
				t.Fatal("VZero line has nonzero bytes")
			}
		}
	}
}

// TestValuesMemoized: generation-0 footprint sizes land in the dense
// memo as segments+1; written lines and lines past the footprint are
// sized afresh and leave it untouched.
func TestValuesMemoized(t *testing.T) {
	all := Suite()
	v := all[0].Values()
	if len(v.gen0) != all[0].TotalLines {
		t.Fatalf("gen-0 memo covers %d lines, want the footprint's %d", len(v.gen0), all[0].TotalLines)
	}
	a := v.Segments(42, 0)
	if v.Segments(42, 0) != a {
		t.Fatal("memoized size changed")
	}
	if v.gen0[42] != uint8(a+1) {
		t.Fatalf("gen-0 memo slot holds %d, want %d (segments+1)", v.gen0[42], a+1)
	}
	v.Segments(43, 1)
	v.Segments(uint64(len(v.gen0))+100, 0)
	for i, s := range v.gen0 {
		if s != 0 && i != 42 {
			t.Fatalf("gen-0 memo slot %d holds %d after queries it does not cover", i, s)
		}
	}
}

// valuesSink keeps the value models TestValuesFootprint builds on the
// heap, where their allocations are counted.
var valuesSink *Values

// TestValuesFootprint bounds what one Values allocates: the dense
// generation-0 memo (one byte per footprint line) plus a small fixed
// overhead. Every bvsimd request builds one, so a per-run table added
// here would come back as a cold-start cost; a 2^17-entry (line, gen)
// cache once made it 1.25-1.64 MB.
func TestValuesFootprint(t *testing.T) {
	for _, name := range []string{"mcf.p1", "wrf.p1", "soplex.p1"} {
		p, ok := ByName(Suite(), name)
		if !ok {
			t.Fatalf("%s missing from suite", name)
		}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			valuesSink = p.Values()
		}
		runtime.ReadMemStats(&after)
		limit := uint64(p.TotalLines) + 16<<10
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > limit {
			t.Errorf("%s: Values allocates %d B, want at most %d (%d footprint lines + 16 KiB)",
				name, per, limit, p.TotalLines)
		}
	}
}

func TestWriteChurnCanChangeSize(t *testing.T) {
	all := Suite()
	p, _ := ByName(all, "winrar.p1") // churn 0.20
	v := p.Values()
	changed := false
	for line := uint64(0); line < 2000 && !changed; line++ {
		if v.Segments(line, 0) != v.Segments(line, 1) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("no line ever changed size across write generations")
	}
}

func TestMixesResolve(t *testing.T) {
	all := Suite()
	mixes := Mixes()
	if len(mixes) != 20 {
		t.Fatalf("%d mixes, want 20", len(mixes))
	}
	for i, m := range mixes {
		for _, name := range m {
			if _, ok := ByName(all, name); !ok {
				t.Errorf("mix %d references unknown trace %q", i, name)
			}
		}
	}
}

func TestInsensitiveShapes(t *testing.T) {
	all := Suite()
	for _, p := range all {
		if p.Sensitive {
			continue
		}
		small := p.TotalLines <= 4096
		streaming := p.StreamFrac > 0.8
		if !small && !streaming {
			t.Errorf("%s: insensitive trace with %d lines and stream %.2f is neither small nor streaming",
				p.Name, p.TotalLines, p.StreamFrac)
		}
	}
}

func TestMeanCompressedRatioEdge(t *testing.T) {
	if Suite()[0].Values().MeanCompressedRatio(0) != 0 {
		t.Fatal("zero-sample ratio should be 0")
	}
}

func BenchmarkGenerator(b *testing.B) {
	g := Suite()[0].Stream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkValuesSegments(b *testing.B) {
	v := Suite()[0].Values()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Segments(uint64(i%100000), 0)
	}
}

func TestValuesWithOtherCompressors(t *testing.T) {
	all := Suite()
	p, _ := ByName(all, "soplex.p1")
	bdi := p.Values()
	fpc := p.ValuesWith(compress.NewFPC())
	// Same content, different size functions; zero lines agree.
	differs := false
	for line := uint64(0); line < 500; line++ {
		sb, sf := bdi.Segments(line, 0), fpc.Segments(line, 0)
		if sb == 0 && sf > 1 {
			t.Fatalf("line %d: zero line sized %d under FPC", line, sf)
		}
		if sb != sf {
			differs = true
		}
	}
	if !differs {
		t.Fatal("FPC produced identical sizes to BDI on every line")
	}
}

// TestThreshMatchesFloat pins the integer-threshold equivalence the
// generator relies on: k < thresh(p) iff float64(k)/2^53 < p, for the
// full range of probabilities including exact dyadics and p >= 1.
func TestThreshMatchesFloat(t *testing.T) {
	r := newRNG(99)
	ps := []float64{0, 1, 0.5, 0.25, 1.0 / 3, 0.05, 0.95, 1e-17, 1 - 1e-16}
	for i := 0; i < 1000; i++ {
		ps = append(ps, float64(r.next()>>11)/(1<<53))
	}
	for _, p := range ps {
		u := thresh(p)
		for j := 0; j < 200; j++ {
			k := r.next() >> 11
			if got, want := k < u, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p=%v k=%d: integer says %v, float says %v", p, k, got, want)
			}
		}
		// Probe the boundary draws exactly.
		for _, k := range []uint64{u - 1, u, u + 1} {
			if k >= 1<<53 {
				continue
			}
			if got, want := k < u, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("boundary p=%v k=%d: integer says %v, float says %v", p, k, got, want)
			}
		}
	}
}
