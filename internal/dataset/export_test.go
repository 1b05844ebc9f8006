package dataset

import "io"

// NewCSVStreamWorkers is NewCSVStream decoding on the given number of
// workers, for the external benchmarks.
func NewCSVStreamWorkers(r io.Reader, spec CSVSpec, chunkSize, workers int) (*CSVStream, error) {
	return newCSVStream(r, spec, chunkSize, workers, pieceSize)
}
