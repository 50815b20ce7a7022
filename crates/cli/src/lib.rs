//! The `idde` binary's argument parser and commands, for its integration tests.

pub mod args;
pub mod commands;
