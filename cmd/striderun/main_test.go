package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCLI drives run() in-process and returns (exit code, stdout, stderr).
func runCLI(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestFlagValidation: every enumerated flag is validated up front; a bad
// value exits 2 and names the valid set on stderr before anything runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr []string
	}{
		{"unknown workload", []string{"-workload", "quake"},
			[]string{`"quake"`, "jess", "db"}},
		{"unknown machine", []string{"-machine", "Itanium"},
			[]string{`"Itanium"`, "Pentium4", "AthlonMP"}},
		{"unknown mode", []string{"-mode", "turbo"},
			[]string{`"turbo"`, "baseline", "inter", "inter+intra"}},
		{"unknown size", []string{"-size", "tiny"},
			[]string{`"tiny"`, "small", "full"}},
		{"unknown gc", []string{"-gc", "generational"},
			[]string{`"generational"`, "compact", "freelist"}},
		{"unknown predict", []string{"-predict", "psychic"},
			[]string{`"psychic"`, "dynamic", "static", "pgo"}},
		{"undefined flag", []string{"-bogus"},
			[]string{"flag provided but not defined"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errw := runCLI(tc.args...)
			if code != 2 {
				t.Errorf("exit = %d, want 2 (stderr: %s)", code, errw)
			}
			if out != "" {
				t.Errorf("usage error wrote to stdout: %q", out)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(errw, want) {
					t.Errorf("stderr %q does not mention %q", errw, want)
				}
			}
		})
	}
}

func TestListWorkloads(t *testing.T) {
	code, out, errw := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errw)
	}
	for _, name := range []string{"jess", "db", "mtrt"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing workload %q", name)
		}
	}
}

func TestMetricSummary(t *testing.T) {
	code, out, errw := runCLI("-workload", "jess", "-machine", "AthlonMP",
		"-mode", "inter", "-size", "small", "-gc", "freelist")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errw)
	}
	for _, want := range []string{"workload     jess (AthlonMP", "cycles", "checksum", "prefetches"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestVerifyFlag runs the differential oracle end to end through the CLI.
func TestVerifyFlag(t *testing.T) {
	code, out, errw := runCLI("-workload", "compress", "-verify")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errw, out)
	}
	if !strings.Contains(out, "verified: 60 configurations reproduce the oracle fingerprint") {
		t.Errorf("verify output unexpected:\n%s", out)
	}
}

func TestVerifyRejectsUnknownWorkloadBeforeRunning(t *testing.T) {
	code, _, errw := runCLI("-workload", "nope", "-verify")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errw)
	}
}

func TestDotUnknownMethod(t *testing.T) {
	code, _, errw := runCLI("-workload", "jess", "-dot", "::noSuchMethod")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errw, "noSuchMethod") {
		t.Errorf("stderr %q does not name the missing method", errw)
	}
}

func TestExplainFlag(t *testing.T) {
	code, out, errw := runCLI("-workload", "db", "-explain")
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errw)
	}
	if out == "" {
		t.Fatal("explain produced no decision log")
	}
}
