package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can observe the command's exit status and output.
const runMainEnv = "SMTSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSmtsim runs the command with args and returns its stdout, stderr
// and exit code.
func runSmtsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// TestOutputGolden pins the command's printed table byte for byte: the
// per-thread rows, the throughput and fairness lines, and the -list menu.
// Run with -update to rewrite testdata/*.golden.
func TestOutputGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fairness", []string{"-threads", "art,mcf", "-tracelen", "2000", "-fairness", "-j", "2"}},
		{"list", []string{"-list"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, stderr, code := runSmtsim(t, c.args...)
			if code != 0 {
				t.Fatalf("smtsim %s: exit %d, stderr %q", strings.Join(c.args, " "), code, stderr)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("smtsim %s output differs from %s:\n--- got ---\n%s--- want ---\n%s",
					strings.Join(c.args, " "), path, got, want)
			}
		})
	}
}

// TestNegativeFlagsRejected: a negative -tracelen used to simulate
// default-length traces and exit 0, and a negative -regs or -j was
// silently ignored.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, name := range []string{"tracelen", "regs", "j"} {
		stdout, stderr, code := runSmtsim(t, "-"+name, "-3")
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-"+name) {
			t.Errorf("smtsim -%s -3: exit %d, stdout %q, stderr %q; want exit 2, no output, the flag named", name, code, stdout, stderr)
		}
	}
}

// TestTraceLenZeroIsDefault: -tracelen 0 keeps the flag's default length,
// as experiments and smtsimd read it, rather than core's 60,000-instruction
// run default.
func TestTraceLenZeroIsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	args := []string{"-threads", "gzip", "-policy", "ICOUNT"}
	def, stderr, code := runSmtsim(t, args...)
	if code != 0 {
		t.Fatalf("smtsim %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
	}
	zero, stderr, code := runSmtsim(t, append(args, "-tracelen", "0")...)
	if code != 0 {
		t.Fatalf("smtsim -tracelen 0: exit %d, stderr %q", code, stderr)
	}
	window := func(out string) string { first, _, _ := strings.Cut(out, "\n"); return first }
	if window(zero) != window(def) {
		t.Errorf("-tracelen 0 prints %q, the default prints %q", window(zero), window(def))
	}
}
