package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

func TestRunDisseminate(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "disseminate", "-family", "path", "-n", "64", "-k", "16"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# disseminate on path", "rounds", "round audit:", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, algo := range []string{"aggregate", "route", "bcc", "sssp", "kssp",
		"apsp-unweighted", "apsp-sparse", "apsp-spanner", "apsp-skeleton", "klsp", "cuts"} {
		var buf bytes.Buffer
		if err := run([]string{"-algo", algo, "-family", "grid2d", "-n", "49", "-k", "8"}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(buf.String(), "rounds") {
			t.Fatalf("%s: no round report:\n%s", algo, buf.String())
		}
	}
}

func TestRunHybrid0Variant(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "disseminate", "-family", "cycle", "-n", "32", "-hybrid0"}, &buf); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnknownAlgorithm: an unknown -algo fails before any graph is
// built or any output written, with one prefix on its stderr line.
func TestRunUnknownAlgorithm(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := exitCode([]string{"-algo", "nosuch", "-n", "16"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if got, want := stderr.String(), "hybridsim: unknown algorithm \"nosuch\"\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
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
	if err := cliutil.VerifyUsageText("hybridsim", buf.String()); err != nil {
		t.Errorf("usage text invalid: %v\n%s", err, buf.String())
	}
}
