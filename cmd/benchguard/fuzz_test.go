package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"strings"
	"testing"
)

// FuzzBenchguardParse holds parseStream to its contract on arbitrary
// bytes: it never panics, every key is "package:Benchmark…", every
// value is finite and positive, and splitting one output event's text
// into two events at any byte leaves the result unchanged — test2json
// splits benchmark output across events wherever the test binary's
// writes happened to land. The seeds are the TestParseStream* streams;
// testdata/fuzz adds the head of a real recording, a 0 ns/op sample
// and an untagged result line whose name holds a non-ASCII byte.
func FuzzBenchguardParse(f *testing.F) {
	for _, s := range []string{
		stream(
			[3]string{"BenchmarkSweep/aggregate", "4051944", ""},
			[3]string{"BenchmarkServe/kernel=indexed/k=150", "1690000.5", ""},
		),
		stream(
			[3]string{"BenchmarkLloyd/kernel=pruned/k=50", "500", ""},
			[3]string{"BenchmarkLloyd/kernel=pruned/k=50", "450", ""},
			[3]string{"BenchmarkLloyd/kernel=pruned/k=50", "520", ""},
		),
		`{"Action":"start","Package":"p"}` + "\n",
		// A second -count run, printed with no Test field.
		stream([3]string{"BenchmarkLloyd/kernel=pruned/k=50", "500", ""}) +
			`{"Action":"output","Package":"repro/internal/x","Output":"BenchmarkLloyd/kernel=pruned/k=50-2   \t"}` + "\n" +
			`{"Action":"output","Package":"repro/internal/x","Output":"     307\t   450 ns/op\n"}` + "\n",
	} {
		f.Add([]byte(s), uint16(0), uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, pick, at uint16) {
		got, err := parseStream(bytes.NewReader(data))
		for key, v := range got {
			if !strings.Contains(key, ":Benchmark") {
				t.Errorf("key %q is not package:Benchmark…", key)
			}
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s = %v, want finite and positive", key, v)
			}
		}
		split, ok := splitOutputEvent(data, int(pick), int(at))
		if !ok {
			return
		}
		again, errAgain := parseStream(bytes.NewReader(split))
		if (err == nil) != (errAgain == nil) || !maps.Equal(got, again) {
			t.Fatalf("splitting an output event changed the parse:\nwhole %v (err %v)\nsplit %v (err %v)\nstream:\n%s",
				got, err, again, errAgain, split)
		}
	})
}

// splitOutputEvent rewrites a test2json stream with one output event
// — the pick-th, modulo their count — cut into two events at byte at
// (modulo its text length + 1); every other line is kept verbatim. It
// reports false when the stream has no output event to split, or is
// too large for the re-encoded lines to stay within parseStream's
// line limit.
func splitOutputEvent(data []byte, pick, at int) ([]byte, bool) {
	if len(data) > 1<<16 {
		return nil, false
	}
	var lines [][]byte
	var outputs []int
	var evs []event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var ev event
		if json.Unmarshal(line, &ev) == nil && ev.Action == "output" {
			outputs = append(outputs, len(lines))
			evs = append(evs, ev)
		}
		lines = append(lines, line)
	}
	if sc.Err() != nil || len(outputs) == 0 {
		return nil, false
	}
	p := pick % len(outputs)
	ev := evs[p]
	cut := at % (len(ev.Output) + 1)
	head, tail := ev, ev
	head.Output, tail.Output = ev.Output[:cut], ev.Output[cut:]
	var out bytes.Buffer
	for i, line := range lines {
		if i != outputs[p] {
			out.Write(line)
			out.WriteByte('\n')
			continue
		}
		for _, part := range []event{head, tail} {
			b, err := json.Marshal(part)
			if err != nil {
				return nil, false
			}
			out.Write(b)
			out.WriteByte('\n')
		}
	}
	return out.Bytes(), true
}
