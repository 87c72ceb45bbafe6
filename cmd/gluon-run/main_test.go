package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"gluon"
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

// TestBCValidate: -validate checks bc against sequential Brandes. A small
// run passes through the CLI, and the same run's values with one dependency
// corrupted fail.
func TestBCValidate(t *testing.T) {
	args := []string{"-bench", "bc", "-scale", "8", "-edgefactor", "4", "-hosts", "2", "-validate"}
	if os.Getenv("GLUON_RUN_AS_MAIN") == "1" {
		os.Args = append([]string{"gluon-run"}, args...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBCValidate$")
	cmd.Env = append(os.Environ(), "GLUON_RUN_AS_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "validation passed") {
		t.Fatalf("gluon-run %s: err %v, output:\n%s", strings.Join(args, " "), err, out)
	}

	numNodes, edges, err := gluon.Generate(gluon.GraphConfig{Kind: "rmat", Scale: 8, EdgeFactor: 4, Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	csr, err := gluon.BuildCSR(numNodes, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	source := csr.MaxOutDegreeNode()
	res, err := gluon.Run(numNodes, edges, gluon.RunConfig{Hosts: 2, Policy: gluon.PolicyKind("cvc"),
		Opt: gluon.Opt(), CollectValues: true, MaxRounds: 100000}, gluon.NewBC(uint64(source), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := validateResult("bc", csr, source, 0, res.Values); err != nil {
		t.Fatalf("a correct bc run failed validation: %v", err)
	}
	res.Values[source] *= 1.001
	if err := validateResult("bc", csr, source, 0, res.Values); err == nil {
		t.Fatal("a corrupted dependency passed validation")
	}
}
