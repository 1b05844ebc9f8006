package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// msColumn matches a result line up to its ms cell (the five fixed-width
// columns before it), so the wall-clock can be masked.
var msColumn = regexp.MustCompile(`(?m)^(.{22} [ 0-9.-]{10} [ 0-9.-]{8} [ 0-9.-]{10} [ 0-9.-]{10} )[ 0-9.]{9}(  )`)

// TestFairbenchGolden pins fairbench's table on the binary and
// 3-valued fixtures, with the ms column masked: every other cell and
// every skip line must match the golden file byte for byte.
func TestFairbenchGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		binary bool
	}{{"binary", true}, {"ternary", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-in", writeCSV(t, tc.binary), "-features", "x,y", "-sensitive", "grp", "-k", "3"}, &buf); err != nil {
				t.Fatalf("run: %v\n%s", err, buf.String())
			}
			got := msColumn.ReplaceAllString(buf.String(), "${1}       ms${2}")
			want, err := os.ReadFile("testdata/" + tc.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("fairbench table changed.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
