package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// An unknown -exp used to run nothing and exit 0, so a typo in a script
// (or a removed experiment's name) passed silently. It must print the
// usage and exit 2 before any experiment starts.
func TestUnknownExpExitsWithUsage(t *testing.T) {
	if exp := os.Getenv("PAPERBENCH_TEST_EXP"); exp != "" {
		os.Args = []string{"paperbench", "-exp", exp}
		main()
		return
	}
	for _, exp := range []string{"serving", "bound", "ALL"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExpExitsWithUsage$")
		cmd.Env = append(os.Environ(), "PAPERBENCH_TEST_EXP="+exp)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-exp %s: err %v, want exit status 2; output:\n%s", exp, err, out)
		}
		if !strings.Contains(string(out), `unknown -exp "`+exp+`"`) || !strings.Contains(string(out), "-pisteps") {
			t.Errorf("-exp %s: output lacks the error or the usage:\n%s", exp, out)
		}
	}
}
