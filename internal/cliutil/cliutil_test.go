package cliutil

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

func TestUsageShape(t *testing.T) {
	var buf bytes.Buffer
	fs := NewFlagSet(&buf, "demo", "One-line synopsis.\nSecond line.", "demo -x 1", "demo -y 2")
	fs.Int("x", 0, "the x")
	if help, err := Parse(fs, []string{"-h"}); !help || err != nil {
		t.Fatalf("Parse(-h) = %v, %v, want help", help, err)
	}
	out := buf.String()
	for _, want := range []string{
		"Usage: demo [flags]",
		"  One-line synopsis.",
		"  Second line.",
		"Flags:",
		"-x int",
		"Examples:",
		"  demo -x 1",
		"  demo -y 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("usage output missing %q:\n%s", want, out)
		}
	}
	// Sections must appear in canonical order.
	if iu, ifl, ie := strings.Index(out, "Usage:"), strings.Index(out, "Flags:"), strings.Index(out, "Examples:"); !(iu < ifl && ifl < ie) {
		t.Errorf("sections out of order:\n%s", out)
	}
}

// TestVerifyUsageText drives the validator over flag sets rendered by
// this package itself, one case per failure mode, so the per-binary
// usage tests (each cmd's TestUsage*) can rely on it to catch
// undocumented flags and missing examples.
func TestVerifyUsageText(t *testing.T) {
	render := func(build func(fs *flag.FlagSet)) string {
		var buf bytes.Buffer
		fs := flag.NewFlagSet("demo", flag.ContinueOnError)
		fs.SetOutput(&buf)
		build(fs)
		fs.Usage()
		return buf.String()
	}
	cases := []struct {
		name    string
		text    string
		wantErr string // substring; "" means valid
	}{
		{
			name: "documented flags and examples",
			text: render(func(fs *flag.FlagSet) {
				SetUsage(fs, "Synopsis.", "demo -x 1", "curl localhost:8080 | demo")
				fs.Int("x", 0, "the x coordinate")
				fs.Bool("stream", false, "also consume the stream")
				fs.String("addr", "127.0.0.1:8080", "listen address")
			}),
		},
		{
			name: "multiline docs and defaults",
			text: render(func(fs *flag.FlagSet) {
				SetUsage(fs, "Synopsis.", "demo")
				fs.Int("n", 1024, "approximate node count;\nrounded per family")
			}),
		},
		{
			name: "undocumented flag",
			text: render(func(fs *flag.FlagSet) {
				SetUsage(fs, "Synopsis.", "demo -x 1")
				fs.Int("x", 0, "the x coordinate")
				fs.Int("y", 0, "")
			}),
			wantErr: "flag -y is undocumented",
		},
		{
			name: "default hint is not documentation",
			text: render(func(fs *flag.FlagSet) {
				SetUsage(fs, "Synopsis.", "demo")
				fs.Int("n", 1024, "")
			}),
			wantErr: "flag -n is undocumented",
		},
		{
			name: "no examples",
			text: render(func(fs *flag.FlagSet) {
				SetUsage(fs, "Synopsis.")
				fs.Int("x", 0, "the x coordinate")
			}),
			wantErr: "missing Examples section",
		},
		{
			name:    "wrong binary name",
			text:    "Usage: other [flags]\n\n  s\n\nFlags:\n  -x int\n    \tdoc\n\nExamples:\n  other -x\n",
			wantErr: `missing "Usage: demo [flags]" header`,
		},
		{
			name:    "empty flags block",
			text:    "Usage: demo [flags]\n\n  s\n\nFlags:\n\nExamples:\n  demo\n",
			wantErr: "lists no flags",
		},
		{
			name:    "blank examples block",
			text:    "Usage: demo [flags]\n\n  s\n\nFlags:\n  -x int\n    \tdoc\n\nExamples:\n   \n",
			wantErr: "Examples section is empty",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := VerifyUsageText("demo", tc.text)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid usage rejected: %v\ntext:\n%s", err, tc.text)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v\ntext:\n%s", tc.wantErr, err, tc.text)
			}
		})
	}
}

// TestParseHelpAndErrors: -h is help, printed to the flag set's
// output; a bad flag is an error with nothing printed, for the binary
// to report once on stderr; good flags parse.
func TestParseHelpAndErrors(t *testing.T) {
	var buf bytes.Buffer
	fs := NewFlagSet(&buf, "demo", "s", "demo -x 1")
	x := fs.Int("x", 0, "the x")
	for _, args := range [][]string{{"-nosuch"}, {"-x", "oops"}} {
		help, err := Parse(fs, args)
		if help || err == nil {
			t.Errorf("Parse(%q) = %v, %v, want an error", args, help, err)
		}
		if buf.Len() != 0 {
			t.Errorf("Parse(%q) printed %q", args, buf.String())
		}
	}
	if help, err := Parse(fs, []string{"-x", "3"}); help || err != nil || *x != 3 {
		t.Errorf("Parse(-x 3) = %v, %v, x = %d", help, err, *x)
	}
	if help, err := Parse(fs, []string{"-help"}); !help || err != nil || !strings.HasPrefix(buf.String(), "Usage: demo [flags]") {
		t.Errorf("Parse(-help) = %v, %v, printed %q", help, err, buf.String())
	}
}
