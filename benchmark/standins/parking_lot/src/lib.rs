//! Empty on purpose: `webcap-core` lists `parking_lot` as a dependency
//! and references no item of it (ROADMAP item 1a).
