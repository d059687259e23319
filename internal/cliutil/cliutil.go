// Package cliutil holds the shared command-line conventions of the
// repro binaries (cmd/experiments, cmd/hybridsim, cmd/nq, cmd/hybridd,
// cmd/hybridload — the entry points to
// the paper's reproduction harness): one usage-text generator, so
// every binary's -h output has the same Usage / Flags / Examples
// shape instead of drifting per command, and one usage-text
// validator (VerifyUsageText), so every binary's tests can enforce
// that each of its flags is documented and its examples survive.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
)

// NewFlagSet returns a ContinueOnError flag set writing to w, with the
// uniform usage text installed: a "Usage:" line, the synopsis, the
// flag table, and the example invocations.
//
// Callers should pass Parse errors through HelpRequested to turn -h
// into a clean exit.
func NewFlagSet(w io.Writer, name, synopsis string, examples ...string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(w)
	SetUsage(fs, synopsis, examples...)
	return fs
}

// SetUsage installs the uniform usage text on an existing flag set.
// The synopsis may span several lines; each is indented uniformly.
func SetUsage(fs *flag.FlagSet, synopsis string, examples ...string) {
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage: %s [flags]\n\n", fs.Name())
		for _, line := range strings.Split(strings.TrimSpace(synopsis), "\n") {
			fmt.Fprintf(w, "  %s\n", strings.TrimSpace(line))
		}
		fmt.Fprintf(w, "\nFlags:\n")
		fs.PrintDefaults()
		if len(examples) > 0 {
			fmt.Fprintf(w, "\nExamples:\n")
			for _, ex := range examples {
				fmt.Fprintf(w, "  %s\n", ex)
			}
		}
	}
}

// HelpRequested reports whether a flag.Parse error was the built-in -h
// /-help flag, which the uniform convention treats as a successful,
// usage-printing exit rather than a failure.
func HelpRequested(err error) bool { return errors.Is(err, flag.ErrHelp) }

// VerifyUsageText validates a binary's rendered -h output against the
// uniform shape this package installs: the "Usage: <name> [flags]"
// header, a Flags section in which every flag carries a description
// (a bare "(default …)" hint does not count — the flag is
// undocumented), and a non-empty Examples section. Each cmd binary's
// test suite feeds its own -h output through this, so adding a flag
// without documenting it, or dropping a binary's examples, fails
// tier-1 rather than shipping silently.
func VerifyUsageText(name, text string) error {
	var errs []error
	if !strings.HasPrefix(text, fmt.Sprintf("Usage: %s [flags]", name)) {
		errs = append(errs, fmt.Errorf("missing %q header", "Usage: "+name+" [flags]"))
	}
	iFlags := strings.Index(text, "\nFlags:\n")
	iExamples := strings.Index(text, "\nExamples:\n")
	switch {
	case iFlags < 0:
		errs = append(errs, errors.New("missing Flags section"))
	case iExamples < 0:
		errs = append(errs, errors.New("missing Examples section"))
	case iExamples < iFlags:
		errs = append(errs, errors.New("Examples section precedes Flags section"))
	default:
		errs = append(errs, verifyFlagDocs(text[iFlags+len("\nFlags:\n"):iExamples])...)
		if strings.TrimSpace(text[iExamples+len("\nExamples:\n"):]) == "" {
			errs = append(errs, errors.New("Examples section is empty"))
		}
	}
	return errors.Join(errs...)
}

// verifyFlagDocs walks the flag.PrintDefaults block: an entry line
// ("  -name [type]", with short entries carrying their description on
// the same line after a tab) followed by "    \t"-indented description
// lines. Every entry must end up with non-empty documentation once the
// "(default …)" suffix is stripped.
func verifyFlagDocs(block string) []error {
	var errs []error
	cur, doc, seen := "", "", false
	finish := func() {
		if !seen {
			return
		}
		if idx := strings.LastIndex(doc, "(default "); idx >= 0 && strings.HasSuffix(strings.TrimSpace(doc), ")") {
			doc = doc[:idx]
		}
		if strings.TrimSpace(doc) == "" {
			errs = append(errs, fmt.Errorf("flag -%s is undocumented", cur))
		}
	}
	for _, line := range strings.Split(block, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			finish()
			entry := line[len("  -"):]
			cur, doc, seen = entry, "", true
			if tab := strings.IndexByte(entry, '\t'); tab >= 0 {
				cur, doc = strings.TrimSpace(entry[:tab]), entry[tab+1:]
			} else if sp := strings.IndexByte(entry, ' '); sp >= 0 {
				cur = entry[:sp]
			}
		case strings.HasPrefix(line, "    \t"):
			doc += " " + line[len("    \t"):]
		}
	}
	finish()
	if !seen {
		errs = append(errs, errors.New("Flags section lists no flags"))
	}
	return errs
}
