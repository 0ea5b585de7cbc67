// Package vectors provides deterministic text embeddings and vector search
// used by the agent and data registries for semantic discovery.
//
// The paper calls for "vector-based techniques using learned representations
// derived from metadata and logs" (§V-C, §V-D). Since training a model is out
// of scope for a reproducible offline build, this package implements a
// feature-hashing embedder: tokens (unigrams and bigrams) are hashed into a
// fixed-dimension vector with deterministic signs, then L2-normalized. This
// preserves the mechanics the architecture depends on — cosine similarity
// between related texts is higher than between unrelated texts, embeddings
// are composable and cacheable — while being fully deterministic.
//
// There is one index, the exact flat Index, and one holder of it: the
// catalog under the agent and data registries (internal/registry). It is a
// derived structure — rebuilt from registry entries on register, update and
// restore — not a data source of its own, so it has no asset in the data
// registry, no WAL records and no spans.
package vectors

import (
	"hash/fnv"
	"math"
	"strings"
)

// DefaultDim is the embedding dimensionality used across the system.
const DefaultDim = 128

// Embedder converts text into fixed-dimension vectors.
type Embedder struct {
	dim int
}

// NewEmbedder returns an Embedder producing vectors of the given dimension.
// If dim <= 0, DefaultDim is used.
func NewEmbedder(dim int) *Embedder {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Embedder{dim: dim}
}

// Dim reports the dimensionality of produced vectors.
func (e *Embedder) Dim() int { return e.dim }

// Embed returns the L2-normalized feature-hash embedding of text.
// The zero vector is returned for empty input.
func (e *Embedder) Embed(text string) []float64 {
	v := make([]float64, e.dim)
	toks := Tokenize(text)
	if len(toks) == 0 {
		return v
	}
	add := func(tok string, weight float64) {
		h := fnv.New64a()
		h.Write([]byte(tok))
		sum := h.Sum64()
		idx := int(sum % uint64(e.dim))
		sign := 1.0
		if (sum>>32)&1 == 1 {
			sign = -1.0
		}
		v[idx] += sign * weight
	}
	for _, t := range toks {
		add(t, 1.0)
	}
	// Bigrams capture local phrase structure ("data scientist" vs "data" +
	// "scientist") with half weight so single-token overlap still matters.
	for i := 0; i+1 < len(toks); i++ {
		add(toks[i]+"_"+toks[i+1], 0.5)
	}
	return Normalize(v)
}

// EmbedWeighted embeds several texts and combines them with the given
// weights, renormalizing the result. It is used to blend metadata embeddings
// with usage-log embeddings ("historical usage data can be leveraged to
// compute enhanced embeddings", §V-C). Inputs of unequal length are ignored.
func (e *Embedder) EmbedWeighted(texts []string, weights []float64) []float64 {
	v := make([]float64, e.dim)
	if len(texts) != len(weights) {
		return v
	}
	for i, t := range texts {
		ev := e.Embed(t)
		for j := range v {
			v[j] += weights[i] * ev[j]
		}
	}
	return Normalize(v)
}

// Tokenize lowercases text, splits it into alphanumeric tokens and applies
// a light plural-stripping stem so "titles" and "title", "cities" and "city"
// hash identically on both the query and document sides.
func Tokenize(text string) []string {
	text = strings.ToLower(text)
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, stem(b.String()))
			b.Reset()
		}
	}
	for _, r := range text {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return toks
}

// stem strips common plural suffixes: "ies"->"y" and a trailing "s" (but
// not "ss"). Stems are substrings or simple variants of the original token,
// so keyword substring matching remains sound.
func stem(tok string) string {
	switch {
	case len(tok) > 4 && strings.HasSuffix(tok, "ies"):
		return tok[:len(tok)-3] + "y"
	case len(tok) > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss"):
		return tok[:len(tok)-1]
	default:
		return tok
	}
}

// Normalize scales v to unit L2 norm in place and returns it.
// The zero vector is returned unchanged.
func Normalize(v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	if sum == 0 {
		return v
	}
	n := math.Sqrt(sum)
	for i := range v {
		v[i] /= n
	}
	return v
}

// Cosine returns the cosine similarity of a and b. Vectors of different
// lengths or zero vectors yield 0.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
