package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can observe the command's exit status and output.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runExperiments runs the command with args and returns its stdout,
// stderr and exit code.
func runExperiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestUnknownFigRejected: a -fig name outside the menu used to print
// nothing and exit 0, which reads as success to a script.
func TestUnknownFigRejected(t *testing.T) {
	stdout, stderr, code := runExperiments(t, "-fig", "fig7", "-quick")
	if code == 0 {
		t.Fatalf("-fig fig7 exited 0; stdout %q, stderr %q", stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("-fig fig7 printed %q, want nothing", stdout)
	}
	for _, name := range []string{"fig7", "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "all"} {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr %q does not name %s", stderr, name)
		}
	}
}

// TestFigNameCaseInsensitive: a known name prints its output and exits 0
// in any case.
func TestFigNameCaseInsensitive(t *testing.T) {
	stdout, stderr, code := runExperiments(t, "-fig", "TABLE1")
	if code != 0 || stdout == "" {
		t.Fatalf("-fig TABLE1: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestNegativeFlagsRejected: a negative bound used to be read as
// unbounded and a negative count as the default, with exit 0.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, name := range []string{"tracelen", "pergroup", "j", "store-bytes", "trace-bytes"} {
		stdout, stderr, code := runExperiments(t, "-fig", "table1", "-"+name, "-3")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-"+name) {
			t.Errorf("experiments -%s -3: exit %d, stdout %q, stderr %q; want exit 2, no output, the flag named", name, code, stdout, stderr)
		}
	}
}

// TestMeasurementCapsRejected: a trace length past core's cap, from the
// flag or from a scenario spec, and a FAME span that wraps to 0 exit 1
// naming the knob, before anything simulates. The session validates its
// base, so the flag fails at start-up rather than in every cell.
func TestMeasurementCapsRejected(t *testing.T) {
	stdout, stderr, code := runExperiments(t, "-fig", "fig1", "-tracelen", "1099511627776")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "trace length") {
		t.Errorf("-tracelen 2^40: exit %d, stdout %q, stderr %q; want exit 1, no output, the trace length named", code, stdout, stderr)
	}
	for name, base := range map[string]string{
		"traceLen 2^40":      `{"traceLen":1099511627776}`,
		"wrapping FAME span": `{"traceLen":16384,"minIterations":1125899906842624}`,
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		spec := `{"name":"caps","workloads":{"groups":["MEM2"],"perGroup":1},"base":` + base + `}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := runExperiments(t, "-scenario", path)
		if code != 1 || stdout != "" || stderr == "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and an error", name, code, stdout, stderr)
		}
	}
}
