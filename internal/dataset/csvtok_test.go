package dataset

import (
	"strings"
	"testing"
)

// TestTokenizerBufferGrowsOnlyForLongRecords: short records stream
// through the fixed read buffer; only a record longer than the buffer
// grows it, and every record still matches encoding/csv.
func TestTokenizerBufferGrowsOnlyForLongRecords(t *testing.T) {
	const bufSize = 16
	short := strings.Repeat("1,ab,\"c\"\r\n", 50)
	tok := newTokenizer(strings.NewReader(short), bufSize)
	for {
		if _, err := tok.next(); err != nil {
			break
		}
	}
	if len(tok.buf) != bufSize {
		t.Errorf("short records grew the buffer to %d bytes, want %d", len(tok.buf), bufSize)
	}

	long := short + "2,\"" + strings.Repeat("x", 40) + "\n" + strings.Repeat("y", 40) + "\",z\n" + short
	tok = newTokenizer(strings.NewReader(long), bufSize)
	for {
		if _, err := tok.next(); err != nil {
			break
		}
	}
	if len(tok.buf) < 80 {
		t.Errorf("an 88-byte record left the buffer at %d bytes", len(tok.buf))
	}
	checkTokenizer(t, []byte(long), strings.NewReader(long), bufSize)
}
