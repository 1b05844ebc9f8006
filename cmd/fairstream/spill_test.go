package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// runCapturing runs fairstream in process with TMPDIR set to tmp and
// returns its stdout, what it wrote to stderr, and the artifact it
// saved with its created_at stamp removed.
func runCapturing(t *testing.T, tmp string, args []string) (stdout, stderr, artifact string) {
	t.Helper()
	t.Setenv("TMPDIR", tmp)
	save := filepath.Join(t.TempDir(), "model.json")
	errFile, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	saved := os.Stderr
	os.Stderr = errFile
	var out bytes.Buffer
	runErr := run(append(args, "-save", save), &out)
	os.Stderr = saved
	if runErr != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, runErr, out.String())
	}
	errText, err := os.ReadFile(errFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	model, err := os.ReadFile(save)
	if err != nil {
		t.Fatal(err)
	}
	createdAt := regexp.MustCompile(`"created_at":\s*"[^"]*"`)
	// The report names the artifact's path, which differs per run.
	return strings.ReplaceAll(out.String(), save, "model.json"), string(errText), createdAt.ReplaceAllString(string(model), "")
}

// TestFairstreamSpillMatchesReread: a run that replays its spills and a
// run whose spills cannot be created (TMPDIR names a missing directory)
// print the same report and save the same artifact, with and without
// -minmax and -skip-eval, on one byte range and on three. Only the
// re-reading run writes to stderr, and a -skip-eval run without -minmax
// tries no spill at all.
func TestFairstreamSpillMatchesReread(t *testing.T) {
	csv := writeTestCSV(t, 5000)
	tmp := t.TempDir()
	missing := filepath.Join(t.TempDir(), "missing")
	base := []string{"-in", csv, "-features", "x,y", "-sensitive", "grp,reg", "-k", "3", "-auto-lambda", "-m", "24"}
	for _, shape := range [][]string{nil, {"-shards", "3", "-chunk", "1000"}} {
		for _, passes := range [][]string{{"-minmax"}, nil, {"-skip-eval"}, {"-minmax", "-skip-eval"}} {
			args := append(append(append([]string(nil), base...), shape...), passes...)
			name := strings.Join(append(append([]string(nil), shape...), passes...), " ")
			spillOut, spillErr, spillModel := runCapturing(t, tmp, args)
			rereadOut, rereadErr, rereadModel := runCapturing(t, missing, args)
			if spillOut != rereadOut {
				t.Errorf("[%s] report differs:\n--- spill\n%s\n--- re-read\n%s", name, spillOut, rereadOut)
			}
			if spillModel != rereadModel {
				t.Errorf("[%s] artifact differs between the spill and re-read runs", name)
			}
			if spillErr != "" {
				t.Errorf("[%s] spill run wrote to stderr: %q", name, spillErr)
			}
			spills := slices.Contains(passes, "-minmax") || !slices.Contains(passes, "-skip-eval")
			note := strings.Contains(rereadErr, "reading "+csv+" again") && strings.Contains(rereadErr, missing)
			if note != spills {
				t.Errorf("[%s] re-read run's stderr = %q; a note is expected only when a later pass reads the rows (%v)", name, rereadErr, spills)
			}
			if !strings.Contains(spillOut, "stream: n=5000") {
				t.Errorf("[%s] report:\n%s", name, spillOut)
			}
			if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
				t.Fatalf("[%s] spill left %d entries in TMPDIR", name, len(entries))
			}
		}
	}
}

// processArgsEnv carries the arguments of a fairstream child process,
// separated by newlines; TestFairstreamProcess runs main with them.
const processArgsEnv = "FAIRSTREAM_PROCESS_ARGS"

// TestFairstreamProcess does nothing in a normal run. Started by
// startFairstream with processArgsEnv set, the test binary acts as the
// fairstream command.
func TestFairstreamProcess(t *testing.T) {
	args := os.Getenv(processArgsEnv)
	if args == "" {
		return
	}
	os.Args = append([]string{"fairstream"}, strings.Split(args, "\n")...)
	main()
}

// startFairstream starts fairstream as a child process with TMPDIR set
// to tmp and returns it with a reader over its stdout.
func startFairstream(t *testing.T, tmp string, args ...string) (*exec.Cmd, *bufio.Reader) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFairstreamProcess$")
	cmd.Env = append(os.Environ(), processArgsEnv+"="+strings.Join(args, "\n"), "TMPDIR="+tmp)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, bufio.NewReader(stdout)
}

// requireEmptyDir fails unless dir holds nothing.
func requireEmptyDir(t *testing.T, what, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("%s left %s in TMPDIR", what, e.Name())
	}
}

// TestFairstreamLeavesNoSpill: whether fairstream is killed mid-run,
// fails on a malformed row mid-file or finishes, its TMPDIR is empty
// afterwards. While it runs, its spill is an open file whose name has
// already been removed from TMPDIR.
func TestFairstreamLeavesNoSpill(t *testing.T) {
	csv := writeTestCSV(t, 80000)
	flags := []string{"-features", "x,y", "-sensitive", "grp,reg", "-k", "3", "-auto-lambda", "-m", "24"}
	args := func(in string, extra ...string) []string {
		return append(append([]string{"-in", in}, flags...), extra...)
	}

	t.Run("killed", func(t *testing.T) {
		tmp := t.TempDir()
		// One-row chunks keep the passes after the min-max line long
		// enough that the kill lands mid-run.
		cmd, out := startFairstream(t, tmp, args(csv, "-chunk", "1", "-minmax")...)
		line, err := out.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "min-max pass") {
			t.Fatalf("first line %q (%v), want the min-max pass line", line, err)
		}
		deleted := openDeletedIn(cmd.Process.Pid, tmp)
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || !exit.Sys().(syscall.WaitStatus).Signaled() {
			t.Fatalf("fairstream ended with %v before the kill; the test needs a longer run", err)
		}
		if deleted == 0 {
			t.Error("fairstream held no removed file from TMPDIR open after its min-max pass")
		}
		requireEmptyDir(t, "a killed run", tmp)
	})

	t.Run("malformed row", func(t *testing.T) {
		raw, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(raw), "\n")
		lines[len(lines)/2] = "1.5,not-a-number,a,n\n"
		bad := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, minmax := range []bool{true, false} {
			tmp := t.TempDir()
			badArgs := args(bad)
			if minmax {
				badArgs = args(bad, "-minmax")
			}
			cmd, out := startFairstream(t, tmp, badArgs...)
			io.Copy(io.Discard, out)
			var exit *exec.ExitError
			if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("-minmax=%v: fairstream on a malformed row ended with %v, want exit 2", minmax, err)
			}
			requireEmptyDir(t, fmt.Sprintf("a failed run (-minmax=%v)", minmax), tmp)
		}
	})

	t.Run("finished", func(t *testing.T) {
		tmp := t.TempDir()
		cmd, out := startFairstream(t, tmp, args(csv, "-minmax")...)
		report, _ := io.ReadAll(out)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("fairstream: %v", err)
		}
		if !bytes.Contains(report, []byte("full data")) {
			t.Fatalf("report has no full-data section:\n%s", report)
		}
		requireEmptyDir(t, "a finished run", tmp)
	})
}

// openDeletedIn counts the files process pid holds open under dir whose
// names have been removed, or returns -1 where /proc is unavailable.
func openDeletedIn(pid int, dir string) int {
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) && strings.HasSuffix(target, " (deleted)") {
			n++
		}
	}
	return n
}
