// Package cli is the command-line contract fbt, fbpaper, fbperf and
// fbtrend share. Help answers a top-level request for usage. Each
// subcommand parses its own flags with Parse and reports whether a
// check failed or returns an error; Status turns that outcome into the
// one exit status every subcommand of the four tools uses.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// Exit statuses.
const (
	OK     = 0
	Failed = 1 // a check failed: a diff regressed, an invariant or a paper claim did not hold
	Error  = 2 // usage, input, I/O or decode error
)

// ErrUsage marks a command line that did not parse; the parse error or
// the usage text has already been printed.
var ErrUsage = errors.New("usage")

// Help reports whether args ask a tool for its usage (-h, -help,
// --help or help), printing usage on stderr if so; the tool then exits
// OK.
func Help(stderr io.Writer, usage string, args []string) bool {
	if len(args) == 0 {
		return false
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, usage)
		return true
	}
	return false
}

// Parse parses a subcommand's args into fs, printing flag errors on
// stderr, and checks that at least min and (max >= 0) at most max
// positional arguments follow the flags; if not, it prints usage.
func Parse(stderr io.Writer, usage string, fs *flag.FlagSet, args []string, min, max int) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", ErrUsage, err) // -h wraps flag.ErrHelp
	}
	if n := fs.NArg(); n < min || max >= 0 && n > max {
		fmt.Fprint(stderr, usage)
		return ErrUsage
	}
	return nil
}

// Status is the exit status of a subcommand that returned failed and
// err. An error other than a usage error Parse already printed goes to
// stderr as one line led by name; -h exits OK.
func Status(stderr io.Writer, name string, failed bool, err error) int {
	switch {
	case errors.Is(err, flag.ErrHelp):
		return OK
	case errors.Is(err, ErrUsage):
		return Error
	case err != nil:
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return Error
	case failed:
		return Failed
	}
	return OK
}
