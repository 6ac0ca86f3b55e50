package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the files that tell a reader to run `lpmbench -exp <name>`.
var citedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "Makefile", ".github/workflows/ci.yml"}

var expCitation = regexp.MustCompile(`lpmbench(?: -full)? -exp ([A-Za-z0-9_]+)`)

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestExperimentIndexIsOneList: the registry is the only list of experiment
// names. Every name a doc, the Makefile or CI cites must be registered, and
// every registered name must have a row in DESIGN.md §4, the index.
func TestExperimentIndexIsOneList(t *testing.T) {
	registered := map[string]bool{"all": true}
	for _, e := range registry {
		if registered[e.name] {
			t.Errorf("experiment %q is registered twice", e.name)
		}
		registered[e.name] = true
	}
	for _, doc := range citedDocs {
		for _, m := range expCitation.FindAllStringSubmatch(readRepoFile(t, doc), -1) {
			if !registered[m[1]] {
				t.Errorf("%s cites `lpmbench -exp %s`, which is not a registered experiment", doc, m[1])
			}
		}
	}

	design := readRepoFile(t, "DESIGN.md")
	start := strings.Index(design, "\n## 4. ")
	end := strings.Index(design, "\n## 5. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	indexed := map[string]bool{}
	for _, m := range expCitation.FindAllStringSubmatch(design[start:end], -1) {
		indexed[m[1]] = true
	}
	for _, e := range registry {
		if !indexed[e.name] {
			t.Errorf("experiment %q has no `lpmbench -exp %s` row in DESIGN.md §4", e.name, e.name)
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
		t.Errorf("stderr %q does not name the unknown experiment", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown experiment printed %q to stdout", stdout.String())
	}
}

// TestRunsOneExperiment drives the run loop end to end on the cheapest
// experiment (closed-form arithmetic, no rule-set).
func TestRunsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "worstbw"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.HasPrefix(out, "# lpmbench scale=quick seed=1\n") || !strings.Contains(out, "(worstbw in ") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestFlagsAreTheFourDocumented(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exit status %d, want 0", code)
	}
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if got, want := strings.Join(flags, " "), "-exp -full -metrics -seed"; got != want {
		t.Errorf("lpmbench -h lists %q, want %q", got, want)
	}
}
