package experiments

import (
	"strings"
	"testing"
)

func TestRunBaselinesCoversMethodZoo(t *testing.T) {
	opts := tinyOptions()
	cmp, err := RunBaselines(opts)
	if err != nil {
		t.Fatalf("RunBaselines: %v", err)
	}
	if len(cmp.Rows) != 9 {
		t.Fatalf("got %d methods, want 9", len(cmp.Rows))
	}
	var kmRow, fkmRow *MethodRow
	for i := range cmp.Rows {
		r := &cmp.Rows[i]
		if r.MeanAE < 0 || r.CO <= 0 || r.Millis <= 0 {
			t.Errorf("%s: implausible measurements %+v", r.Method, r)
		}
		switch r.Method {
		case "K-Means(N)":
			kmRow = r
		case "FairKM(all)":
			fkmRow = r
		}
	}
	if kmRow == nil || fkmRow == nil {
		t.Fatal("missing the two principal methods")
	}
	if fkmRow.MeanAE >= kmRow.MeanAE {
		t.Errorf("FairKM AE %v not better than blind %v", fkmRow.MeanAE, kmRow.MeanAE)
	}
	out := cmp.Render()
	for _, want := range []string{"Fairlet", "Bera", "FairSC", "FairKCenter", "GreedyCapture", "FairProj"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunScalabilityGrowsWithN(t *testing.T) {
	opts := tinyOptions()
	sc, err := RunScalability(opts)
	if err != nil {
		t.Fatalf("RunScalability: %v", err)
	}
	if len(sc.Points) != 4 {
		t.Fatalf("got %d points", len(sc.Points))
	}
	for i := 1; i < len(sc.Points); i++ {
		if sc.Points[i].N <= sc.Points[i-1].N {
			t.Errorf("sizes not increasing: %v", sc.Points)
		}
	}
	// Wall-clock is noisy; only check the endpoints differ by a sane
	// factor (8x data should not be faster than 1x).
	first, last := sc.Points[0], sc.Points[len(sc.Points)-1]
	if last.FairKMMillis < first.FairKMMillis {
		t.Logf("note: FairKM timing noisy: %v -> %v ms", first.FairKMMillis, last.FairKMMillis)
	}
	if !strings.Contains(sc.Render(), "FairKM ms") {
		t.Error("render missing header")
	}
}

func TestRunNumericSensitive(t *testing.T) {
	opts := tinyOptions()
	ns, err := RunNumericSensitive(opts)
	if err != nil {
		t.Fatalf("RunNumericSensitive: %v", err)
	}
	// Age correlates with the remaining features via the latent model,
	// so blind clusters separate by age; Eq. 22 must shrink the gap.
	if ns.FairKM.AvgGap >= ns.Blind.AvgGap {
		t.Errorf("FairKM age gap %v not better than blind %v", ns.FairKM.AvgGap, ns.Blind.AvgGap)
	}
	out := ns.Render()
	if !strings.Contains(out, "Eq. 22") || !strings.Contains(out, "FairKM") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestRunKSweep(t *testing.T) {
	opts := tinyOptions()
	s, err := RunKSweep(opts)
	if err != nil {
		t.Fatalf("RunKSweep: %v", err)
	}
	if len(s.Points) != 5 {
		t.Fatalf("got %d points", len(s.Points))
	}
	for _, p := range s.Points {
		if p.WideAttr != "native-country" {
			t.Errorf("wide attribute = %q", p.WideAttr)
		}
		// FairKM must be fairer than blind on the mean at every k.
		if p.FairMeanAE >= p.BlindMeanAE {
			t.Errorf("k=%d: FairKM meanAE %v not below blind %v", p.K, p.FairMeanAE, p.BlindMeanAE)
		}
		// CO improves (decreases) with k for both methods — check the
		// sweep is ordered.
		if p.K < 2 {
			t.Errorf("bad k %d", p.K)
		}
	}
	if !strings.Contains(s.Render(), "native-country") {
		t.Error("render missing wide attribute")
	}
}

func TestRunConvergence(t *testing.T) {
	opts := tinyOptions()
	c, err := RunConvergence(opts)
	if err != nil {
		t.Fatalf("RunConvergence: %v", err)
	}
	if len(c.Points) != 4 {
		t.Fatalf("got %d points", len(c.Points))
	}
	for _, p := range c.Points {
		if p.Iterations < 1 || p.Iterations > 30 {
			t.Errorf("λ=%v: iterations %v outside [1,30]", p.Lambda, p.Iterations)
		}
		if p.FinalObj > p.FirstObj+1e-9 {
			t.Errorf("λ=%v: final objective %v above first-iteration %v", p.Lambda, p.FinalObj, p.FirstObj)
		}
	}
	// λ=0 reduces to K-Means-style descent, which settles fastest.
	if c.Points[0].Iterations > c.Points[2].Iterations {
		t.Logf("note: λ=0 took %v iterations vs λ=4000's %v", c.Points[0].Iterations, c.Points[2].Iterations)
	}
	if !strings.Contains(c.Render(), "converged%") {
		t.Error("render missing header")
	}
}

func TestRunAttrSweep(t *testing.T) {
	opts := tinyOptions()
	s, err := RunAttrSweep(opts)
	if err != nil {
		t.Fatalf("RunAttrSweep: %v", err)
	}
	if len(s.Points) != 12 {
		t.Fatalf("got %d grid points, want 12", len(s.Points))
	}
	for _, p := range s.Points {
		if p.FairAE > p.BlindAE+1e-9 {
			t.Errorf("attrs=%d card=%d: FairKM AE %v above blind %v",
				p.Attrs, p.Cardinality, p.FairAE, p.BlindAE)
		}
		if p.CORatio <= 0 {
			t.Errorf("non-positive CO ratio %v", p.CORatio)
		}
	}
	// The headline trend: binary attributes are far easier to balance
	// than 32-value ones (compare reductions at the same attr count).
	var binAE, wideAE, binBlind, wideBlind float64
	for _, p := range s.Points {
		if p.Attrs == 4 && p.Cardinality == 2 {
			binAE, binBlind = p.FairAE, p.BlindAE
		}
		if p.Attrs == 4 && p.Cardinality == 32 {
			wideAE, wideBlind = p.FairAE, p.BlindAE
		}
	}
	if binAE/binBlind >= wideAE/wideBlind {
		t.Errorf("binary attrs (%v ratio) not easier than 32-value attrs (%v ratio)",
			binAE/binBlind, wideAE/wideBlind)
	}
	if !strings.Contains(s.Render(), "cardinality") {
		t.Error("render missing header")
	}
}
