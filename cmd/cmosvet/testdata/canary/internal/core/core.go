// Package core carries the deliberately seeded cmosvet violations, one per
// analyzer, each in the file named after it. The CI canary step runs
// cmosvet over this module and requires a non-zero exit, and
// TestCanaryFailsStandalone requires one with each analyzer alone: if an
// analyzer ever silently stops finding anything, the gate fails loudly
// instead of green-lighting itself. TestCanarySeedsOneViolationPerAnalyzer
// pins them. Do not "fix" them.
package core
