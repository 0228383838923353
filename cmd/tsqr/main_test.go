package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildOnce compiles the command under test into a temp dir.
func buildOnce(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tsqr")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// exitCode is the status a command run ended with (0 on success, -1
// when it did not run).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

func TestCLIAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildOnce(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-m", "4000", "-n", "8", "-q"}, "‖A - QR‖/‖A‖"},
		{[]string{"-algo", "caqr", "-m", "512", "-n", "64", "-nb", "16"}, "max |R - R_seq|"},
		{[]string{"-algo", "cholqr", "-m", "4000", "-n", "8"}, "‖I - QᵀQ‖_F"},
		{[]string{"-algo", "tslu", "-m", "4000", "-n", "8"}, "max |A - L·U|"},
		{[]string{"-algo", "lstsq", "-m", "4000", "-n", "8"}, "max |x - x_true|"},
		{[]string{"-m", "4000", "-n", "8", "-tree", "shuffled", "-baseline"}, "baseline done"},
	} {
		out, err := runCLI(t, bin, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestCLIMatrixMarketRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildOnce(t)
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.mtx")
	// Factor a random matrix, write R, then factor R itself from file.
	out, err := runCLI(t, bin, "-m", "2000", "-n", "6", "-out", rPath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(rPath); err != nil {
		t.Fatal("output file missing")
	}
	out, err = runCLI(t, bin, "-in", rPath, "-clusters", "1", "-procs", "1")
	if err != nil {
		t.Fatalf("reading back: %v\n%s", err, out)
	}
	if !strings.Contains(out, "6×6 matrix") {
		t.Fatalf("unexpected readback output:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := buildOnce(t)
	for _, args := range [][]string{
		{"-algo", "nope"},
		{"-tree", "nope"},
		{"-m", "10", "-n", "8"}, // too short for 8 procs
		{"-in", "/nonexistent/file.mtx"},
	} {
		out, err := runCLI(t, bin, args...)
		if err == nil {
			t.Fatalf("%v: expected failure, got:\n%s", args, out)
		}
		if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
			t.Fatalf("%v: crashed instead of failing cleanly:\n%s", args, out)
		}
	}
	// A CAQR shape that does not divide (the defaults: 12500 rows per
	// process, not a multiple of NB=64) fails before any process starts:
	// exit status 2 and one line, which also rules out a panic dump.
	out, err := runCLI(t, bin, "-algo", "caqr")
	if code := exitCode(err); code != 2 || strings.Count(out, "\n") != 1 {
		t.Fatalf("default caqr: exit %d, want 2 with one line:\n%s", code, out)
	}
	// Likewise a -domains count that does not divide a cluster's ranks.
	out, err = runCLI(t, bin, "-m", "600", "-n", "64", "-domains", "3")
	if code := exitCode(err); code != 2 || strings.Count(out, "\n") != 1 {
		t.Fatalf("-domains 3: exit %d, want 2 with one line:\n%s", code, out)
	}
}
