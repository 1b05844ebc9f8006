package model

import (
	"bytes"
	"testing"
)

// FuzzModelDecode holds Decode to the artifact codec's contract on
// arbitrary bytes: it never panics, every model it accepts passes
// Validate, and the canonical encoding is a fixpoint — encoding an
// accepted model, decoding those bytes and encoding again reproduces
// them exactly. The seeds are the valid artifact and the envelopes
// TestDecodeRejectsBadEnvelopes rejects; testdata/fuzz holds the rest.
func FuzzModelDecode(f *testing.F) {
	good := goodArtifact(f)
	f.Add([]byte(good))
	for _, c := range badEnvelopes(good) {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Decode accepted a model Validate rejects: %v", err)
		}
		var first bytes.Buffer
		if err := m.Encode(&first); err != nil {
			t.Fatalf("encoding an accepted model: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding the canonical encoding: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Encode∘Decode is not a fixpoint:\nfirst  %s\nsecond %s", first.Bytes(), second.Bytes())
		}
	})
}
