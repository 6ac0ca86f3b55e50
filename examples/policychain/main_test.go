package main

import "testing"

// TestRuns runs the example; a check of its own that fails exits via log.Fatal.
func TestRuns(t *testing.T) { main() }
