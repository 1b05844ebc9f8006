package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestColdStartBadArtifact re-executes the test binary as fairserved
// itself, through cli.Main, against an empty and a truncated artifact
// — what a crash during a non-durable save used to leave behind. A
// cold start has no incumbent model to fall back on, so it must exit 2
// with one stderr line naming the path, never panic or start serving.
func TestColdStartBadArtifact(t *testing.T) {
	if path := os.Getenv("FAIRSERVED_COLDSTART_MODEL"); path != "" {
		os.Args = []string{"fairserved", "-model", path, "-addr", "127.0.0.1:0"}
		main()
		return
	}
	dir := t.TempDir()
	good, _ := saveFixtureModel(t, dir, 1)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": raw[:len(raw)/2],
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".json")
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], "-test.run", "^TestColdStartBadArtifact$")
			cmd.Env = append(os.Environ(), "FAIRSERVED_COLDSTART_MODEL="+path)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("cold start on a %s artifact: %v, want exit %d", name, err, cli.ExitUsage)
			}
			if code := exit.ExitCode(); code != cli.ExitUsage {
				t.Errorf("cold start on a %s artifact exited %d, want %d (stderr %q)", name, code, cli.ExitUsage, stderr.String())
			}
			msg := stderr.String()
			if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "fairserved: ") || !strings.Contains(msg, path) {
				t.Errorf("stderr = %q, want one fairserved line naming %s", msg, path)
			}
			if strings.Contains(stdout.String(), "listening on") {
				t.Errorf("cold start on a %s artifact started serving: %q", name, stdout.String())
			}
		})
	}
}
