package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

func TestRunSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "64", "-k", "16,64"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NQ_k scaling") || !strings.Contains(out, "grid3d") {
		t.Fatalf("sweep output:\n%s", out)
	}
}

func TestRunSingleFamily(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "64", "-k", "16", "-family", "path"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "witness node") {
		t.Fatalf("family output:\n%s", buf.String())
	}
}

func TestRunBadK(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-k", "16,oops"}, &buf); err == nil {
		t.Fatal("bad k list accepted")
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
	if err := cliutil.VerifyUsageText("nq", buf.String()); err != nil {
		t.Errorf("usage text invalid: %v\n%s", err, buf.String())
	}
}

// TestFlagErrors: -h prints the usage text to stdout and exits 0; an
// unknown flag prints one error line to stderr, nothing to stdout, and
// exits 1.
func TestFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := exitCode([]string{"-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 ||
		!strings.HasPrefix(stdout.String(), "Usage: nq [flags]") {
		t.Errorf("-h: exit code %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := exitCode([]string{"-nosuch"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 ||
		stderr.String() != "nq: flag provided but not defined: -nosuch\n" {
		t.Errorf("-nosuch: exit code %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
