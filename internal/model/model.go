// Package model defines the persistent FairKM model artifact: a
// versioned, self-describing snapshot of a trained clustering that can
// be saved, loaded and served without the training process or data.
//
// An artifact carries everything deployment needs:
//
//   - the cluster centroids (weighted means over the feature space) and
//     the feature schema they index,
//   - the fairness configuration that produced them (k, λ),
//   - per sensitive attribute: the categorical domain snapshot in stable
//     code order (a dataset.DomainIndex serialization) and the
//     dataset-level training distribution Fr_X,
//   - per cluster: training mass and the per-attribute sensitive-value
//     distributions inside the cluster — the reference point for serving-
//     time fairness drift reports (internal/serve),
//   - optional feature scaling parameters (min-max), so raw serving
//     inputs can be mapped into the trained feature space,
//   - provenance: which tool trained it, seed, row count and the final
//     objective decomposition.
//
// # Codec
//
// The on-disk form is a single JSON object (the envelope) whose first
// fields identify the format and version. Encoding is deterministic:
// struct field order is fixed, maps are never serialized, and floats use
// Go's shortest round-trip formatting, so Encode∘Decode is the identity
// on the float64 bit patterns. That determinism is load-bearing — a
// round-tripped model must reproduce in-memory assignments bit-for-bit
// (tested in model_test.go, required by the serving contract in
// DESIGN.md). NaN and Inf are rejected by Validate, so every artifact
// that encodes also decodes.
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Format is the envelope's format marker.
const Format = "fairclust-model"

// Version is the current artifact format version. Decode accepts only
// versions it knows how to read (currently just this one).
const Version = 1

// SensitiveSchema describes one sensitive attribute as trained.
type SensitiveSchema struct {
	// Name is the attribute's column name.
	Name string `json:"name"`
	// Kind is "categorical" or "numeric".
	Kind string `json:"kind"`
	// Values is the categorical domain snapshot in stable code order
	// (the dataset.DomainIndex state at training time); nil for numeric
	// attributes.
	Values []string `json:"values,omitempty"`
	// TrainFractions is the dataset-level Fr_X per value, aligned with
	// Values; nil for numeric attributes.
	TrainFractions []float64 `json:"train_fractions,omitempty"`
	// TrainMean is the dataset-level mean for numeric attributes.
	TrainMean float64 `json:"train_mean,omitempty"`
}

// KindCategorical and KindNumeric are the SensitiveSchema.Kind values.
const (
	KindCategorical = "categorical"
	KindNumeric     = "numeric"
)

// ClusterProfile is one cluster's training-time summary.
type ClusterProfile struct {
	// Mass is the cluster's total weight at training time (row count
	// for unweighted solves, Σw for weighted/streaming ones).
	Mass float64 `json:"mass"`
	// Distributions[a] is the cluster's value distribution over
	// categorical attribute a (aligned with Model.Sensitive; numeric
	// attributes hold a one-element slice with the cluster mean).
	Distributions [][]float64 `json:"distributions"`
}

// Scaling records an input transform applied before training, so
// serving can map raw inputs into the trained feature space.
type Scaling struct {
	// Kind is currently always "minmax".
	Kind string `json:"kind"`
	// Mins and Ranges are per-feature-column; Apply maps
	// x → (x−min)/range (0 where range is 0).
	Mins   []float64 `json:"mins"`
	Ranges []float64 `json:"ranges"`
}

// Apply maps a raw feature vector into the trained space, in place.
func (s *Scaling) Apply(x []float64) {
	for j := range x {
		if s.Ranges[j] > 0 {
			x[j] = (x[j] - s.Mins[j]) / s.Ranges[j]
		} else {
			x[j] = 0
		}
	}
}

// Provenance records where an artifact came from.
type Provenance struct {
	// Tool is the trainer ("fairkm", "fairstream", ...).
	Tool string `json:"tool"`
	// CreatedAt is the RFC 3339 save time.
	CreatedAt string `json:"created_at,omitempty"`
	// Seed is the training RNG seed.
	Seed int64 `json:"seed"`
	// Rows is the number of training points the model stands for (the
	// streamed count for summarize-then-solve models).
	Rows int `json:"rows"`
	// Objective, KMeansTerm and FairnessTerm decompose the final
	// training objective; Iterations and Converged describe the solve.
	Objective    float64 `json:"objective"`
	KMeansTerm   float64 `json:"kmeans_term"`
	FairnessTerm float64 `json:"fairness_term"`
	Iterations   int     `json:"iterations"`
	Converged    bool    `json:"converged"`
}

// Model is a trained fair clustering, ready to serve.
type Model struct {
	// Format and Version identify the envelope; Encode fills them.
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Name is an optional human-readable identifier (the serving
	// registry's default key; file base name when empty).
	Name string `json:"name,omitempty"`
	// K is the number of clusters; Lambda the fairness weight λ the
	// model was trained with.
	K      int     `json:"k"`
	Lambda float64 `json:"lambda"`
	// FeatureNames is the feature schema; Centroids[c] is cluster c's
	// prototype over exactly these columns, in order.
	FeatureNames []string    `json:"feature_names"`
	Centroids    [][]float64 `json:"centroids"`
	// Sensitive describes the sensitive attributes as trained, in
	// dataset order.
	Sensitive []SensitiveSchema `json:"sensitive"`
	// Clusters holds per-cluster training masses and sensitive-value
	// distributions, aligned with Centroids.
	Clusters []ClusterProfile `json:"clusters"`
	// Scaling, when non-nil, must be applied to raw inputs before
	// nearest-centroid assignment.
	Scaling *Scaling `json:"scaling,omitempty"`
	// Provenance records the training run.
	Provenance Provenance `json:"provenance"`
}

// Dim returns the feature dimensionality.
func (m *Model) Dim() int {
	if len(m.Centroids) > 0 {
		return len(m.Centroids[0])
	}
	return len(m.FeatureNames)
}

// New builds an artifact from a completed solve: the dataset (or
// weighted summary) it ran on, the per-row weights (nil for unit
// weights) and the result. Per-cluster distributions are computed from
// the final assignment; prov.CreatedAt is left for Save to stamp.
func New(ds *dataset.Dataset, weights []float64, res *core.Result, prov Provenance) (*Model, error) {
	if ds == nil || res == nil {
		return nil, errors.New("model: nil dataset or result")
	}
	n := ds.N()
	if len(res.Assign) != n {
		return nil, fmt.Errorf("model: result assigns %d rows, dataset has %d", len(res.Assign), n)
	}
	if weights != nil && len(weights) != n {
		return nil, fmt.Errorf("model: %d weights for %d rows", len(weights), n)
	}
	wOf := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	k := res.K()
	prov.Objective = res.Objective
	prov.KMeansTerm = res.KMeansTerm
	prov.FairnessTerm = res.FairnessTerm
	prov.Iterations = res.Iterations
	prov.Converged = res.Converged
	if prov.Rows == 0 {
		prov.Rows = n
	}

	m := &Model{
		K:            k,
		Lambda:       res.Lambda,
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		Centroids:    make([][]float64, k),
		Clusters:     make([]ClusterProfile, k),
		Provenance:   prov,
	}
	for c, cen := range res.Centroids {
		m.Centroids[c] = append([]float64(nil), cen...)
	}

	mass := make([]float64, k)
	total := 0.0
	for i, c := range res.Assign {
		mass[c] += wOf(i)
		total += wOf(i)
	}
	if total <= 0 {
		return nil, errors.New("model: zero total mass")
	}
	for c := range m.Clusters {
		m.Clusters[c] = ClusterProfile{
			Mass:          mass[c],
			Distributions: make([][]float64, len(ds.Sensitive)),
		}
	}
	for ai, attr := range ds.Sensitive {
		switch attr.Kind {
		case dataset.Categorical:
			frX := make([]float64, len(attr.Values))
			counts := make([][]float64, k)
			for c := range counts {
				counts[c] = make([]float64, len(attr.Values))
			}
			for i, code := range attr.Codes {
				w := wOf(i)
				frX[code] += w
				counts[res.Assign[i]][code] += w
			}
			for v := range frX {
				frX[v] /= total
			}
			for c := 0; c < k; c++ {
				if mass[c] > 0 {
					stats.Scale(counts[c], 1/mass[c])
				}
				m.Clusters[c].Distributions[ai] = counts[c]
			}
			m.Sensitive = append(m.Sensitive, SensitiveSchema{
				Name:           attr.Name,
				Kind:           KindCategorical,
				Values:         append([]string(nil), attr.Values...),
				TrainFractions: frX,
			})
		case dataset.Numeric:
			meanX, sums := 0.0, make([]float64, k)
			for i, v := range attr.Reals {
				w := wOf(i)
				meanX += w * v
				sums[res.Assign[i]] += w * v
			}
			meanX /= total
			for c := 0; c < k; c++ {
				mu := 0.0
				if mass[c] > 0 {
					mu = sums[c] / mass[c]
				}
				m.Clusters[c].Distributions[ai] = []float64{mu}
			}
			m.Sensitive = append(m.Sensitive, SensitiveSchema{
				Name:      attr.Name,
				Kind:      KindNumeric,
				TrainMean: meanX,
			})
		default:
			return nil, fmt.Errorf("model: attribute %q has unknown kind %v", attr.Name, attr.Kind)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks structural consistency and finiteness (JSON cannot
// carry NaN/Inf, so rejecting them here keeps every valid Model
// encodable).
func (m *Model) Validate() error {
	if m.K < 1 {
		return fmt.Errorf("model: k=%d must be positive", m.K)
	}
	if len(m.Centroids) != m.K {
		return fmt.Errorf("model: %d centroids for k=%d", len(m.Centroids), m.K)
	}
	if len(m.Clusters) != m.K {
		return fmt.Errorf("model: %d cluster profiles for k=%d", len(m.Clusters), m.K)
	}
	if m.Lambda < 0 || !isFinite(m.Lambda) {
		return fmt.Errorf("model: lambda %v must be finite and non-negative", m.Lambda)
	}
	dim := m.Dim()
	if dim == 0 {
		return errors.New("model: zero feature dimensionality")
	}
	if len(m.FeatureNames) != 0 && len(m.FeatureNames) != dim {
		return fmt.Errorf("model: %d feature names for %d features", len(m.FeatureNames), dim)
	}
	for c, cen := range m.Centroids {
		if len(cen) != dim {
			return fmt.Errorf("model: centroid %d has %d features, want %d", c, len(cen), dim)
		}
		for j, v := range cen {
			if !isFinite(v) {
				return fmt.Errorf("model: centroid [%d][%d] is not finite", c, j)
			}
		}
	}
	for ai, s := range m.Sensitive {
		switch s.Kind {
		case KindCategorical:
			if len(s.Values) == 0 {
				return fmt.Errorf("model: categorical attribute %q has empty domain", s.Name)
			}
			if len(s.TrainFractions) != len(s.Values) {
				return fmt.Errorf("model: attribute %q has %d train fractions for %d values", s.Name, len(s.TrainFractions), len(s.Values))
			}
			seen := make(map[string]bool, len(s.Values))
			for _, v := range s.Values {
				if seen[v] {
					return fmt.Errorf("model: attribute %q has duplicate value %q", s.Name, v)
				}
				seen[v] = true
			}
			for _, f := range s.TrainFractions {
				if !isFinite(f) {
					return fmt.Errorf("model: attribute %q has non-finite train fraction", s.Name)
				}
			}
		case KindNumeric:
			if len(s.Values) != 0 || len(s.TrainFractions) != 0 {
				return fmt.Errorf("model: numeric attribute %q carries a categorical domain", s.Name)
			}
			if !isFinite(s.TrainMean) {
				return fmt.Errorf("model: attribute %q has non-finite train mean", s.Name)
			}
		default:
			return fmt.Errorf("model: attribute %q has unknown kind %q", s.Name, s.Kind)
		}
		for c := range m.Clusters {
			if len(m.Clusters[c].Distributions) != len(m.Sensitive) {
				return fmt.Errorf("model: cluster %d has %d distributions for %d attributes", c, len(m.Clusters[c].Distributions), len(m.Sensitive))
			}
			want := 1
			if s.Kind == KindCategorical {
				want = len(s.Values)
			}
			if got := len(m.Clusters[c].Distributions[ai]); got != want {
				return fmt.Errorf("model: cluster %d attribute %q distribution has %d entries, want %d", c, s.Name, got, want)
			}
			for _, p := range m.Clusters[c].Distributions[ai] {
				if !isFinite(p) {
					return fmt.Errorf("model: cluster %d attribute %q has a non-finite distribution entry", c, s.Name)
				}
			}
		}
	}
	for c := range m.Clusters {
		if !isFinite(m.Clusters[c].Mass) || m.Clusters[c].Mass < 0 {
			return fmt.Errorf("model: cluster %d mass %v must be finite and non-negative", c, m.Clusters[c].Mass)
		}
	}
	if m.Scaling != nil {
		if m.Scaling.Kind != "minmax" {
			return fmt.Errorf("model: unknown scaling kind %q", m.Scaling.Kind)
		}
		if len(m.Scaling.Mins) != dim || len(m.Scaling.Ranges) != dim {
			return fmt.Errorf("model: scaling has %d/%d columns for %d features", len(m.Scaling.Mins), len(m.Scaling.Ranges), dim)
		}
		for j := 0; j < dim; j++ {
			if !isFinite(m.Scaling.Mins[j]) || !isFinite(m.Scaling.Ranges[j]) {
				return fmt.Errorf("model: scaling column %d is not finite", j)
			}
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Assign returns the nearest centroid for a feature vector already in
// the trained space (Scaling, if any, must have been applied). It is
// the deployment rule of core.Result.Predict: distance-only, ignoring
// the fairness term.
func (m *Model) Assign(x []float64) int {
	c, _ := m.AssignDist(x)
	return c
}

// AssignDist is Assign returning the squared distance too.
func (m *Model) AssignDist(x []float64) (int, float64) {
	return stats.NearestCentroidScan(x, m.Centroids)
}

// CategoricalAttrs returns the indexes into Sensitive with categorical
// kind, in order.
func (m *Model) CategoricalAttrs() []int {
	var idx []int
	for ai, s := range m.Sensitive {
		if s.Kind == KindCategorical {
			idx = append(idx, ai)
		}
	}
	return idx
}

// DomainIndex rebuilds the stable value→code mapping of sensitive
// attribute ai from its snapshot, ready to absorb unseen serving-time
// values.
func (m *Model) DomainIndex(ai int) (*dataset.DomainIndex, error) {
	s := m.Sensitive[ai]
	if s.Kind != KindCategorical {
		return nil, fmt.Errorf("model: attribute %q is not categorical", s.Name)
	}
	return dataset.NewDomainIndexFrom(s.Values)
}

// Encode writes the artifact as its canonical JSON envelope. The output
// is deterministic: identical models encode to identical bytes.
func (m *Model) Encode(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	env := *m
	env.Format = Format
	env.Version = Version
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&env)
}

// Decode reads and validates an artifact.
func Decode(r io.Reader) (*Model, error) {
	dec := json.NewDecoder(r)
	var m Model
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("model: decoding artifact: %w", err)
	}
	if m.Format != Format {
		return nil, fmt.Errorf("model: not a %s artifact (format %q)", Format, m.Format)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("model: unsupported artifact version %d (supported: %d)", m.Version, Version)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the artifact to path atomically and durably (temp file,
// fsync, rename, fsync of the directory), so a serving process
// reloading the path never observes a torn write, and neither does a
// cold start after a crash.
// The written envelope stamps Provenance.CreatedAt if unset and
// defaults Name to the file base name; m itself is never mutated (it
// may be concurrently served).
func Save(path string, m *Model) error {
	env := *m
	if env.Provenance.CreatedAt == "" {
		//fairvet:ignore nodeterminism -- provenance timestamp on a Save copy; the codec determinism contract is over a fixed envelope, and CreatedAt is caller-settable for reproducible bytes
		env.Provenance.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if env.Name == "" {
		env.Name = strippedBase(path)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".model-*.json")
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	defer os.Remove(tmp.Name()) //fairvet:ignore errflow -- best-effort temp cleanup; after a successful rename the name is gone
	if err := env.Encode(tmp); err != nil {
		tmp.Close() //fairvet:ignore errflow -- close on the encode error path; the encode error wins
		return err
	}
	// Sync before the rename, and the directory after it, so a crash
	// leaves either the old artifact or the new one at path, never an
	// empty or torn file.
	if err := tmp.Sync(); err != nil {
		tmp.Close() //fairvet:ignore errflow -- close on the sync error path; the sync error wins
		return fmt.Errorf("model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	return syncDir(dir)
}

// syncDir flushes dir's entries, making a rename into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close() //fairvet:ignore errflow -- close on the sync error path; the sync error wins
		return fmt.Errorf("model: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	return nil
}

// Load reads and validates the artifact at path.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close() //fairvet:ignore errflow -- file opened read-only; nothing was buffered to lose
	m, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	if m.Name == "" {
		m.Name = strippedBase(path)
	}
	return m, nil
}

// strippedBase is the file base name without its extension.
func strippedBase(path string) string {
	base := filepath.Base(path)
	if ext := filepath.Ext(base); ext != "" && ext != base {
		base = base[:len(base)-len(ext)]
	}
	return base
}
