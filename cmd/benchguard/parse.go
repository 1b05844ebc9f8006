package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// event is the subset of the test2json record benchguard needs.
type event struct {
	Action  string
	Package string
	Test    string
	Output  string
}

// nsOpRE matches the timing column of a benchmark result line. The
// benchmark name is NOT taken from the text (test2json splits the
// name and the numbers into separate output events); it comes from
// the event's Test field.
var nsOpRE = regexp.MustCompile(`(\d+(?:\.\d+)?) ns/op`)

// parseStream reads a `go test -bench -json` event stream and returns
// the minimum ns/op observed per benchmark. Keys are
// "package:Benchmark/sub" so identically named benchmarks in
// different packages can share one recording. Non-benchmark events
// and unparseable lines (e.g. a truncated tail from an interrupted
// run) are skipped, and so are non-positive or overflowing samples: a
// 0 ns/op floor would make every later ratio against it NaN or +Inf,
// and NaN compares as "ok". Only an empty result is an error.
func parseStream(r io.Reader) (map[string]float64, error) {
	// Benchmark output arrives split across events: one event carries
	// the padded name, a later one the "N\t ns/op" columns. Buffer
	// output per (package, test) and regex the whole thing at the end.
	bufs := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		if ev.Action != "output" || ev.Test == "" || !strings.HasPrefix(ev.Test, "Benchmark") {
			continue
		}
		key := ev.Package + ":" + ev.Test
		b, ok := bufs[key]
		if !ok {
			b = &strings.Builder{}
			bufs[key] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	res := make(map[string]float64)
	for key, b := range bufs {
		for _, m := range nsOpRE.FindAllStringSubmatch(b.String(), -1) {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil || v <= 0 {
				continue
			}
			if best, ok := res[key]; !ok || v < best {
				res[key] = v
			}
		}
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark results found")
	}
	return res, nil
}
