//! Helpers shared by integration tests (`mod common;`); each uses a part.
#![allow(dead_code)]

pub mod crash;
pub mod oracle;
