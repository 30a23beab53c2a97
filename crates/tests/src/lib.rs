//! Workspace glue crate hosting the root tests/ directory.

#![deny(unsafe_code)]
