// Package cli is the shared entrypoint shim for every command in
// cmd/*: it runs a testable run(args, out) function and converts its
// error into the repository-wide CLI failure contract — a clear
// one-line message on stderr and exit code 2, never a panic and never
// a bare exit 1 (so scripts can distinguish "bad invocation or input"
// from a crash).
package cli

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// ExitUsage is the exit code for every CLI failure: invalid flags,
// unreadable inputs, impossible parameters. (0 remains success.)
const ExitUsage = 2

// ExitInternal is the exit code when a command body panics. The
// contract still holds — one line on stderr, never a raw stack trace —
// but the distinct code lets scripts tell a crash (a bug in the tool)
// from a rejected invocation.
const ExitInternal = 3

// Main runs a command body and applies the failure contract. The body
// gets os.Args[1:] and os.Stdout; on error, the first line of the
// error is printed as "name: message" to stderr (a message that
// already starts with "name: " is printed as is) and the process exits
// with ExitUsage. A panicking body is recovered into the same one-line
// shape ("name: internal error: ...") with exit code ExitInternal.
func Main(name string, run func(args []string, out io.Writer) error) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "%s: internal error: %s\n", name, firstLine(fmt.Sprintf("%v", r)))
			os.Exit(ExitInternal)
		}
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		msg := FirstLine(err)
		if !strings.HasPrefix(msg, name+": ") {
			msg = name + ": " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(ExitUsage)
	}
}

// CloseCapture closes c and, when the surrounding function is
// otherwise succeeding, folds a close failure into *errp. This is the
// deferred-close idiom for files opened for WRITING, where Close is
// the final flush and its error means data loss:
//
//	func write(path string) (err error) {
//		f, cerr := os.Create(path) // distinct name: do not shadow err
//		if cerr != nil {
//			return cerr
//		}
//		defer cli.CloseCapture(&err, f)
//		...
//	}
//
// An earlier error wins — the close failure is then almost always a
// consequence of it. Read-only closes do not need this: a justified
// //fairvet:ignore errflow on the plain defer is the audited shape.
func CloseCapture(errp *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *errp == nil {
		*errp = cerr
	}
}

// FirstLine reduces an error to its first non-empty line, keeping the
// one-line contract even for wrapped multi-line errors.
func FirstLine(err error) string {
	return firstLine(err.Error())
}

func firstLine(s string) string {
	for _, line := range strings.Split(s, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			return line
		}
	}
	return "unknown error"
}

// SplitList splits a comma-separated flag value into its items, each
// trimmed of surrounding space; the empty string gives nil.
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
