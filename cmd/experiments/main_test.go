package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

func TestRunSingleTableMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-table", "4", "-n", "64", "-families", "path"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "| path |") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "Table 1") {
		t.Fatal("unselected table present")
	}
}

func TestRunFormatsAndParallel(t *testing.T) {
	render := func(extra ...string) string {
		var buf bytes.Buffer
		args := append([]string{"-nq", "-n", "64"}, extra...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if out := render("-format", "csv"); !strings.HasPrefix(out, "table,family") {
		t.Fatalf("csv:\n%s", out)
	}
	if out := render("-format", "jsonl"); !strings.Contains(out, `"table":"nqscaling"`) {
		t.Fatalf("jsonl:\n%s", out)
	}
	// -parallel must not change the bytes.
	if render("-parallel", "1") != render("-parallel", "8") {
		t.Fatal("output depends on -parallel")
	}
}

func TestRunFamiliesReachEverySection(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-figure", "1", "-n", "64", "-families", "expander"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "landscape on expander") {
		t.Fatalf("figure 1 ignored -families:\n%s", out)
	}
	if strings.Contains(out, "grid2d") {
		t.Fatalf("figure 1 kept default families:\n%s", out)
	}

	// The NQ section intersects with its theorem families: expander has
	// no prediction, so the table renders empty rather than lying.
	buf.Reset()
	if err := run([]string{"-nq", "-n", "64", "-families", "expander,cycle"}, &buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "| cycle |") || strings.Contains(out, "expander") {
		t.Fatalf("nq intersection wrong:\n%s", out)
	}
	buf.Reset()
	if err := run([]string{"-nq", "-n", "64", "-families", "expander"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NQ_k scaling") || strings.Contains(buf.String(), "| expander |") {
		t.Fatalf("empty nq intersection:\n%s", buf.String())
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned %v", err)
	}
}

// TestRunRejectsBadInput: bad input fails with exit code 1, one stderr
// line under a single "experiments:" prefix and nothing on stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-families", "nosuch"}, `experiments: unknown family "nosuch" (known: `},
		{[]string{"-table", "7", "-n", "64"}, "experiments: unknown table 7\n"},
		{[]string{"-format", "xml", "-nq", "-n", "64"}, `experiments: unknown format "xml" (want md, csv or jsonl)` + "\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := exitCode(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit code %d, want 1", tc.args, code)
		}
		if !strings.HasPrefix(stderr.String(), tc.stderr) || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line starting %q", tc.args, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout not empty:\n%s", tc.args, stdout.String())
		}
	}
}

func TestParseFamilies(t *testing.T) {
	fams, err := parseFamilies("path, grid2d,expander")
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 || string(fams[1]) != "grid2d" {
		t.Fatalf("fams=%v", fams)
	}
}

// TestUsageShape pins the shared cliutil -h format every binary emits:
// the validator fails on any undocumented flag or a missing Examples
// block.
func TestUsageShape(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if err := cliutil.VerifyUsageText("experiments", buf.String()); err != nil {
		t.Errorf("usage text invalid: %v\n%s", err, buf.String())
	}
}
