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

// nsOpRE matches the timing column of a benchmark result line. For an
// event carrying a Test field the benchmark name is NOT taken from the
// text (test2json splits the name and the numbers into separate output
// events); it comes from the Test field.
var nsOpRE = regexp.MustCompile(`(\d+(?:\.\d+)?) ns/op`)

// untaggedRE matches one result line in a package's untagged output:
// the benchmark name as printed (with the -GOMAXPROCS suffix go test
// adds when GOMAXPROCS > 1), the iteration count and the ns/op column.
// `go test -json -count N` emits the result lines of runs 2..N with no
// Test field. The name must be printable ASCII: an event cut inside a
// multi-byte character re-encodes that character, so a name holding
// one would not read the same from every split of the stream; such a
// benchmark keeps only its tagged first run.
var untaggedRE = regexp.MustCompile(`(?m)^(Benchmark[!-~]*)\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// procsSuffixRE matches the -GOMAXPROCS suffix of a printed name.
var procsSuffixRE = regexp.MustCompile(`-\d+$`)

// parseStream reads a `go test -bench -json` event stream and returns
// the minimum ns/op observed per benchmark. Keys are
// "package:Benchmark/sub" so identically named benchmarks in
// different packages can share one recording. Non-benchmark events
// and unparseable lines (e.g. a truncated tail from an interrupted
// run) are skipped, and so are non-positive or overflowing samples: a
// 0 ns/op floor would make every later ratio against it NaN or +Inf,
// and NaN compares as "ok". Only an empty result is an error.
//
// A result line in output that carries no Test field (runs 2..N of
// -count N) is credited to the benchmark it names: the printed name
// without its -GOMAXPROCS suffix when that is a benchmark seen with a
// Test field in the same package, the printed name otherwise.
func parseStream(r io.Reader) (map[string]float64, error) {
	// Benchmark output arrives split across events: one event carries
	// the padded name, a later one the "N\t ns/op" columns. Buffer
	// output per (package, test), and untagged output per package, and
	// regex the whole thing at the end.
	bufs := make(map[string]*strings.Builder)
	untagged := make(map[string]*strings.Builder)
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
		if ev.Action != "output" {
			continue
		}
		var b *strings.Builder
		switch {
		case ev.Test == "":
			b = builder(untagged, ev.Package)
		case strings.HasPrefix(ev.Test, "Benchmark"):
			b = builder(bufs, ev.Package+":"+ev.Test)
		default:
			continue
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	res := make(map[string]float64)
	record := func(key, ns string) {
		v, err := strconv.ParseFloat(ns, 64)
		if err != nil || v <= 0 {
			return
		}
		if best, ok := res[key]; !ok || v < best {
			res[key] = v
		}
	}
	for key, b := range bufs {
		for _, m := range nsOpRE.FindAllStringSubmatch(b.String(), -1) {
			record(key, m[1])
		}
	}
	for pkg, b := range untagged {
		for _, m := range untaggedRE.FindAllStringSubmatch(b.String(), -1) {
			key := pkg + ":" + m[1]
			if base := pkg + ":" + procsSuffixRE.ReplaceAllString(m[1], ""); bufs[base] != nil {
				key = base
			}
			record(key, m[2])
		}
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark results found")
	}
	return res, nil
}

// builder returns the buffer stored under key, creating it on first
// use.
func builder(m map[string]*strings.Builder, key string) *strings.Builder {
	b, ok := m[key]
	if !ok {
		b = &strings.Builder{}
		m[key] = b
	}
	return b
}
