package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestFirstLine(t *testing.T) {
	cases := map[string]string{
		"plain":              "plain",
		"first\nsecond":      "first",
		"\n\n  padded \nend": "padded",
		"   \n\t\n":          "unknown error",
	}
	for in, want := range cases {
		if got := FirstLine(errors.New(in)); got != want {
			t.Errorf("FirstLine(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMainExitCode re-executes the test binary so Main's os.Exit is
// observable: a failing run must exit 2 with a one-line stderr message,
// a succeeding run must exit 0.
func TestMainExitCode(t *testing.T) {
	switch os.Getenv("CLI_TEST_CHILD") {
	case "fail":
		Main("boomtool", func([]string, io.Writer) error {
			return fmt.Errorf("kaput: bad input\nsecond line that must not print")
		})
		return
	case "prefixed":
		Main("fairkm", func([]string, io.Writer) error {
			return fmt.Errorf("fairkm: lambda NaN must be finite and non-negative")
		})
		return
	case "ok":
		Main("oktool", func([]string, io.Writer) error { return nil })
		return
	case "panic":
		Main("crashtool", func([]string, io.Writer) error {
			panic(fmt.Errorf("nil deref in the solver\nwith a second line"))
		})
		return
	}

	run := func(mode string) (int, string) {
		cmd := exec.Command(os.Args[0], "-test.run", "TestMainExitCode")
		cmd.Env = append(os.Environ(), "CLI_TEST_CHILD="+mode)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return code, stderr.String()
	}

	code, stderr := run("fail")
	if code != ExitUsage {
		t.Errorf("failing tool exited %d, want %d", code, ExitUsage)
	}
	if want := "boomtool: kaput: bad input\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}

	// A message that already names the tool is not prefixed twice.
	code, stderr = run("prefixed")
	if code != ExitUsage {
		t.Errorf("prefixed tool exited %d, want %d", code, ExitUsage)
	}
	if want := "fairkm: lambda NaN must be finite and non-negative\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}

	code, stderr = run("ok")
	if code != 0 || stderr != "" {
		t.Errorf("succeeding tool exited %d with stderr %q", code, stderr)
	}

	// A panicking command must still honor the contract: exactly one
	// stderr line, no stack trace, and the distinct internal-error code.
	code, stderr = run("panic")
	if code != ExitInternal {
		t.Errorf("panicking tool exited %d, want %d", code, ExitInternal)
	}
	if want := "crashtool: internal error: nil deref in the solver\n"; stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
	if strings.Contains(stderr, "goroutine") {
		t.Errorf("stack trace leaked to the user:\n%s", stderr)
	}
}
