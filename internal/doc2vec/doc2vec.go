// Package doc2vec implements a from-scratch Paragraph Vector model in
// the PV-DBOW flavour (Le & Mikolov 2014) with negative sampling.
//
// The FairKM paper represents each kinematics word problem as a
// 100-dimensional Doc2Vec embedding (Section 5.1); this package is the
// stdlib-only substitute for gensim used by the kinematics dataset
// generator. PV-DBOW trains one vector per document by asking it to
// predict the words it contains: for every (document, word) pair the
// document vector receives a logistic-regression update against the
// word's output vector, with k negative words sampled from the
// unigram^0.75 distribution.
//
// Documents that share vocabulary therefore receive aligned updates and
// end up close in cosine distance — the property that makes lexical
// clustering of word problems meaningful.
package doc2vec

//fairvet:floateq norm==0 detects an exactly-zero vector before dividing

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Config parameterizes training.
type Config struct {
	// Dim is the embedding dimensionality (the paper uses 100).
	Dim int
	// Epochs is the number of passes over the corpus; zero means 40.
	Epochs int
	// Negative is the number of negative samples per positive pair;
	// zero means 5.
	Negative int
	// LR is the initial learning rate (decays linearly to LR/10);
	// zero means 0.05.
	LR float64
	// Seed drives initialization and negative sampling.
	Seed int64
}

// Model is a trained PV-DBOW model.
type Model struct {
	// DocVecs[i] is the embedding of document i.
	DocVecs [][]float64
	// Vocab maps each word to its index in WordVecs.
	Vocab map[string]int
	// WordVecs holds the output (context) vectors.
	WordVecs [][]float64
}

// Tokenize lowercases text and splits it into alphanumeric word tokens;
// everything else is a separator. Numbers are collapsed to the token
// "<num>" so embeddings reflect problem structure rather than the
// particular constants sampled into a template.
func Tokenize(text string) []string {
	var tokens []string
	var cur strings.Builder
	isDigit := true
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		if isDigit {
			tokens = append(tokens, "<num>")
		} else {
			tokens = append(tokens, cur.String())
		}
		cur.Reset()
		isDigit = true
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z':
			cur.WriteRune(r)
			isDigit = false
		case r >= '0' && r <= '9' || r == '.':
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Train fits PV-DBOW document vectors for the tokenized documents.
func Train(docs [][]string, cfg Config) (*Model, error) {
	if len(docs) == 0 {
		return nil, errors.New("doc2vec: no documents")
	}
	dim := cfg.Dim
	if dim <= 0 {
		dim = 100
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 40
	}
	negative := cfg.Negative
	if negative <= 0 {
		negative = 5
	}
	lr0 := cfg.LR
	if lr0 <= 0 {
		lr0 = 0.05
	}

	// Build vocabulary with deterministic word order.
	counts := map[string]int{}
	total := 0
	for i, doc := range docs {
		if len(doc) == 0 {
			return nil, fmt.Errorf("doc2vec: document %d is empty", i)
		}
		for _, w := range doc {
			counts[w]++
			total++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}

	// Negative-sampling distribution: unigram^0.75.
	negWeights := make([]float64, len(words))
	for i, w := range words {
		negWeights[i] = math.Pow(float64(counts[w]), 0.75)
	}
	negTable := newAliasTable(negWeights)

	rng := stats.NewRNG(cfg.Seed)
	docVecs := make([][]float64, len(docs))
	for i := range docVecs {
		docVecs[i] = randomVec(rng, dim)
	}
	wordVecs := make([][]float64, len(words))
	for i := range wordVecs {
		wordVecs[i] = make([]float64, dim) // zero-init outputs, as in word2vec
	}

	// Pre-encode documents as word indexes.
	encoded := make([][]int, len(docs))
	for i, doc := range docs {
		enc := make([]int, len(doc))
		for j, w := range doc {
			enc[j] = vocab[w]
		}
		encoded[i] = enc
	}

	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	steps := 0
	totalSteps := epochs * total
	grad := make([]float64, dim)
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, d := range order {
			dv := docVecs[d]
			for _, target := range encoded[d] {
				lr := lr0 * (1 - 0.9*float64(steps)/float64(totalSteps))
				steps++
				for i := range grad {
					grad[i] = 0
				}
				trainPair(dv, wordVecs[target], 1, lr, grad)
				for s := 0; s < negative; s++ {
					neg := negTable.sample(rng)
					if neg == target {
						continue
					}
					trainPair(dv, wordVecs[neg], 0, lr, grad)
				}
				stats.AddTo(dv, grad)
			}
		}
	}
	return &Model{DocVecs: docVecs, Vocab: vocab, WordVecs: wordVecs}, nil
}

// trainPair performs one logistic SGD step for (doc, word) with the
// given label, updating the word vector in place and accumulating the
// document gradient.
func trainPair(dv, wv []float64, label float64, lr float64, grad []float64) {
	z := stats.Dot(dv, wv)
	g := lr * (label - sigmoid(z))
	for i := range wv {
		grad[i] += g * wv[i]
		wv[i] += g * dv[i]
	}
}

func sigmoid(x float64) float64 {
	// Clamp to avoid overflow; beyond ±30 the result saturates anyway.
	if x > 30 {
		return 1
	}
	if x < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

func randomVec(rng *stats.RNG, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) / float64(dim)
	}
	return v
}

// CosineSimilarity returns the cosine of the angle between a and b, or
// 0 if either is a zero vector.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := stats.Norm(a), stats.Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return stats.Dot(a, b) / (na * nb)
}

// aliasTable supports O(1) sampling from a discrete distribution
// (Walker's alias method); used for negative sampling where millions of
// draws are made.
type aliasTable struct {
	prob  []float64
	alias []int
}

func newAliasTable(weights []float64) *aliasTable {
	n := len(weights)
	total := stats.Sum(weights)
	prob := make([]float64, n)
	alias := make([]int, n)
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
	}
	var small, large []int
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) {
		prob[i] = 1
		alias[i] = i
	}
	return &aliasTable{prob: prob, alias: alias}
}

func (t *aliasTable) sample(rng *stats.RNG) int {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}
