package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestOversizedScaleFails: a scale whose node count does not fit in 64 bits
// is refused with the generator's error and a non-zero exit, not run as an
// empty graph. The test re-executes its own binary as gluon-run.
func TestOversizedScaleFails(t *testing.T) {
	if os.Getenv("GLUON_RUN_AS_MAIN") == "1" {
		os.Args = []string{"gluon-run", "-scale", "64"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOversizedScaleFails$")
	cmd.Env = append(os.Environ(), "GLUON_RUN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("gluon-run -scale 64: err %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "overflows the node or edge count") {
		t.Fatalf("gluon-run -scale 64 did not print the generator's error:\n%s", out)
	}
}

// TestBCValidateRefused: bc has no validator, so -validate is refused before
// anything runs instead of reporting a correct run as a failed validation.
func TestBCValidateRefused(t *testing.T) {
	if os.Getenv("GLUON_RUN_AS_MAIN") == "1" {
		os.Args = []string{"gluon-run", "-bench", "bc", "-scale", "8", "-edgefactor", "4", "-hosts", "2", "-validate"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBCValidateRefused$")
	cmd.Env = append(os.Environ(), "GLUON_RUN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("gluon-run -bench bc -validate: err %v, want a non-zero exit; output:\n%s", err, out)
	}
	if strings.Contains(string(out), "system=") {
		t.Fatalf("gluon-run -bench bc -validate ran before refusing:\n%s", out)
	}
	if !strings.Contains(string(out), "bc has no validator") {
		t.Fatalf("gluon-run -bench bc -validate did not say why:\n%s", out)
	}
}
