package model

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/testfix"
)

// train runs FairKM on ds and wraps the result as an artifact.
func train(t testing.TB, ds *dataset.Dataset, k int) (*core.Result, *Model) {
	t.Helper()
	res, err := core.Run(ds, core.Config{K: k, AutoLambda: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(ds, nil, res, Provenance{Tool: "test", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

// assignAll labels every dataset row with the model's nearest-centroid
// rule.
func assignAll(m *Model, ds *dataset.Dataset) []int {
	out := make([]int, ds.N())
	for i, x := range ds.Features {
		out[i] = m.Assign(x)
	}
	return out
}

// TestRoundTripBitIdentical is the artifact's core contract: a decoded
// model reproduces the in-memory model's batch assignments bit-for-bit
// and its objective within 1e-9, on both fixtures.
func TestRoundTripBitIdentical(t *testing.T) {
	fixtures := map[string]*dataset.Dataset{
		"synth": testfix.Synth(3, 400, 4, 2, 1),
		"adult": testfix.Adult(1, 900),
	}
	for name, ds := range fixtures {
		t.Run(name, func(t *testing.T) {
			_, m := train(t, ds, 5)

			var buf bytes.Buffer
			if err := m.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			// Centroid and λ bit patterns survive the JSON envelope.
			if loaded.Lambda != m.Lambda {
				t.Fatalf("lambda changed: %x -> %x", math.Float64bits(m.Lambda), math.Float64bits(loaded.Lambda))
			}
			for c := range m.Centroids {
				for j := range m.Centroids[c] {
					a, b := m.Centroids[c][j], loaded.Centroids[c][j]
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("centroid [%d][%d] bits changed: %v -> %v", c, j, a, b)
					}
				}
			}

			want := assignAll(m, ds)
			got := assignAll(loaded, ds)
			if !reflect.DeepEqual(want, got) {
				t.Fatal("loaded model assigns differently from in-memory model")
			}

			ov1, err := core.EvaluateObjective(ds, want, m.K, m.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			ov2, err := core.EvaluateObjective(ds, got, loaded.K, loaded.Lambda, nil)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(ov1.Objective - ov2.Objective); diff > 1e-9 {
				t.Fatalf("objective drifted %g across round trip", diff)
			}
		})
	}
}

// TestEncodeDeterministic pins the codec: the same model always
// serializes to the same bytes.
func TestEncodeDeterministic(t *testing.T) {
	ds := testfix.Synth(11, 200, 3, 2, 0)
	_, m := train(t, ds, 4)
	var a, b bytes.Buffer
	if err := m.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same model differ")
	}
	// And a decode→encode cycle is byte-stable too.
	loaded, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := loaded.Encode(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("decode→encode is not byte-stable")
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds := testfix.Synth(2, 150, 3, 1, 0)
	_, m := train(t, ds, 3)
	path := filepath.Join(t.TempDir(), "tiny.model.json")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	// Save stamps the written envelope, never its argument — m may be
	// concurrently served.
	if m.Provenance.CreatedAt != "" || m.Name != "" {
		t.Errorf("Save mutated its argument: name %q created %q", m.Name, m.Provenance.CreatedAt)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Provenance.CreatedAt == "" {
		t.Error("saved envelope has no CreatedAt stamp")
	}
	if loaded.Name != "tiny.model" {
		t.Errorf("saved envelope Name = %q, want tiny.model", loaded.Name)
	}
	if !reflect.DeepEqual(assignAll(m, ds), assignAll(loaded, ds)) {
		t.Fatal("file round trip changed assignments")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("Save left %d files in the directory, want 1", len(entries))
	}
}

func TestNewWeightedDistributions(t *testing.T) {
	ds := testfix.Synth(5, 120, 3, 2, 1)
	w := make([]float64, ds.N())
	for i := range w {
		w[i] = float64(1 + i%4)
	}
	res, err := core.RunWeighted(ds, w, core.Config{K: 3, Lambda: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(ds, w, res, Provenance{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster masses must match the solver's and distributions must be
	// probability vectors.
	for c, cl := range m.Clusters {
		if res.Masses != nil && math.Abs(cl.Mass-res.Masses[c]) > 1e-9 {
			t.Errorf("cluster %d mass %v != solver mass %v", c, cl.Mass, res.Masses[c])
		}
		for ai, s := range m.Sensitive {
			if s.Kind != KindCategorical || cl.Mass == 0 {
				continue
			}
			sum := 0.0
			for _, p := range cl.Distributions[ai] {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("cluster %d attr %q distribution sums to %v", c, s.Name, sum)
			}
		}
	}
	// Dataset-level fractions are mass-weighted.
	for _, s := range m.Sensitive {
		if s.Kind != KindCategorical {
			continue
		}
		sum := 0.0
		for _, f := range s.TrainFractions {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("attr %q train fractions sum to %v", s.Name, sum)
		}
	}
}

func TestDecodeRejectsBadEnvelopes(t *testing.T) {
	good := goodArtifact(t)
	for _, c := range badEnvelopes(good) {
		if c.doc == good {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if _, err := Decode(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// goodArtifact returns the encoding of a small trained model.
func goodArtifact(t testing.TB) string {
	ds := testfix.Synth(4, 100, 2, 1, 0)
	_, m := train(t, ds, 2)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// badEnvelopes derives artifacts Decode must reject from the valid one.
func badEnvelopes(good string) []struct{ name, doc string } {
	return []struct{ name, doc string }{
		{"wrong format", strings.Replace(good, `"format": "fairclust-model"`, `"format": "csv"`, 1)},
		{"wrong version", strings.Replace(good, `"version": 1`, `"version": 99`, 1)},
		{"not json", "cluster,x,y\n0,1,2\n"},
		{"empty", ""},
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	ds := testfix.Synth(4, 100, 2, 1, 0)
	_, m := train(t, ds, 2)
	m.Centroids[0][0] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN centroid validated")
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err == nil {
		t.Error("NaN centroid encoded")
	}
}

func TestScalingApply(t *testing.T) {
	ds := testfix.Synth(9, 200, 3, 1, 0)
	mins, ranges := ds.MinMaxNormalize()
	_, m := train(t, ds, 3)
	m.Scaling = &Scaling{Kind: "minmax", Mins: mins, Ranges: ranges}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// A raw point scaled through the artifact must land on the same
	// cluster as its pre-normalized twin.
	raw := make([]float64, len(mins))
	for j := range raw {
		raw[j] = mins[j] + 0.25*ranges[j]
	}
	scaled := append([]float64(nil), raw...)
	m.Scaling.Apply(scaled)
	for j := range scaled {
		want := 0.25
		if ranges[j] == 0 {
			want = 0
		}
		if math.Abs(scaled[j]-want) > 1e-12 {
			t.Fatalf("scaled[%d] = %v, want %v", j, scaled[j], want)
		}
	}
}

func TestDomainIndexResumesCodes(t *testing.T) {
	ds := testfix.Synth(4, 100, 2, 1, 0)
	_, m := train(t, ds, 2)
	ai := m.CategoricalAttrs()[0]
	dom, err := m.DomainIndex(ai)
	if err != nil {
		t.Fatal(err)
	}
	for code, v := range m.Sensitive[ai].Values {
		if got := dom.Code(v); got != code {
			t.Errorf("value %q got code %d, trained as %d", v, got, code)
		}
	}
	if got := dom.Code("never-seen"); got != len(m.Sensitive[ai].Values) {
		t.Errorf("unseen value got code %d, want %d", got, len(m.Sensitive[ai].Values))
	}
}
