package doc2vec

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"A ball is thrown up at 12.5 m/s!", []string{"a", "ball", "is", "thrown", "up", "at", "<num>", "m", "s"}},
		{"", nil},
		{"42", []string{"<num>"}},
		{"speed-of-light", []string{"speed", "of", "light"}},
		{"CAR car CaR", []string{"car", "car", "car"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// corpus builds two lexical "topics" with disjoint content words.
func topicCorpus(docsPerTopic, wordsPerDoc int) [][]string {
	topicA := []string{"car", "drives", "road", "engine", "wheel", "highway", "speed"}
	topicB := []string{"ball", "falls", "height", "gravity", "drop", "cliff", "tower"}
	rng := stats.NewRNG(99)
	var docs [][]string
	for _, topic := range [][]string{topicA, topicB} {
		for d := 0; d < docsPerTopic; d++ {
			doc := make([]string, wordsPerDoc)
			for w := range doc {
				doc[w] = topic[rng.Intn(len(topic))]
			}
			docs = append(docs, doc)
		}
	}
	return docs
}

func TestTopicsSeparateInEmbeddingSpace(t *testing.T) {
	docs := topicCorpus(10, 12)
	m, err := Train(docs, Config{Dim: 16, Epochs: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Mean within-topic cosine must exceed mean across-topic cosine by
	// a clear margin.
	var within, across float64
	var nw, na int
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			cs := CosineSimilarity(m.DocVecs[i], m.DocVecs[j])
			if (i < 10) == (j < 10) {
				within += cs
				nw++
			} else {
				across += cs
				na++
			}
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if within < across+0.2 {
		t.Errorf("within-topic cosine %v not clearly above across-topic %v", within, across)
	}
}

func TestDeterminism(t *testing.T) {
	docs := topicCorpus(4, 8)
	a, err := Train(docs, Config{Dim: 8, Epochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(docs, Config{Dim: 8, Epochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.DocVecs {
		for j := range a.DocVecs[i] {
			if a.DocVecs[i][j] != b.DocVecs[i][j] {
				t.Fatalf("doc vec [%d][%d] differs across identical runs", i, j)
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Train([][]string{{"a"}, {}}, Config{}); err == nil {
		t.Error("empty document accepted")
	}
}

func TestModelShapes(t *testing.T) {
	docs := [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}}
	m, err := Train(docs, Config{Dim: 12, Epochs: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.DocVecs) != 3 {
		t.Errorf("DocVecs = %d, want 3", len(m.DocVecs))
	}
	for i, v := range m.DocVecs {
		if len(v) != 12 {
			t.Errorf("DocVecs[%d] dim = %d, want 12", i, len(v))
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("DocVecs[%d] contains non-finite value", i)
			}
		}
	}
	if len(m.Vocab) != 3 || len(m.WordVecs) != 3 {
		t.Errorf("vocab size = %d/%d, want 3", len(m.Vocab), len(m.WordVecs))
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("cos(a,a) = %v", got)
	}
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-12 {
		t.Errorf("cos(orthogonal) = %v", got)
	}
	if got := CosineSimilarity(a, []float64{0, 0}); got != 0 {
		t.Errorf("cos with zero vector = %v, want 0", got)
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 7}
	table := newAliasTable(weights)
	rng := stats.NewRNG(3)
	counts := make([]float64, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[table.sample(rng)]++
	}
	for i, w := range weights {
		want := w / 10
		got := counts[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("alias sample %d frequency %v, want ~%v", i, got, want)
		}
	}
}
