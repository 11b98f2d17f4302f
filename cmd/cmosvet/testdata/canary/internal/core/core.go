// Package core carries the deliberately seeded cmosvet violations, one per
// analyzer, each in the file named after it. The CI canary step runs
// cmosvet over this module, with all analyzers and with each one alone, and
// requires a non-zero exit: if an analyzer ever silently stops finding
// anything, the job fails loudly instead of green-lighting a broken gate.
// TestCanarySeedsOneViolationPerAnalyzer pins them. Do not "fix" them.
package core
