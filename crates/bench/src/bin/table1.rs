//! Regenerates **Table 1** — "Comparing SDN to SMN" — from the implemented
//! system's actual surface rather than as a static quote: each SMN cell is
//! annotated with the module that realizes it in this workspace.

fn main() {
    let rows = vec![
        vec![
            "Scope".to_string(),
            "Data Plane".to_string(),
            "All Planes (controller loops over incidents, capacity, reliability: smn-core::controller)".to_string(),
        ],
        vec![
            "Timescale".into(),
            "µseconds to Hours".into(),
            "Minutes to Years (incident_loop: minutes; planning_loop: months of windows)".into(),
        ],
        vec![
            "Data Inputs".into(),
            "Structured (Traffic, Topology)".into(),
            "Mixed (BandwidthRecord/HealthSample/ProbeResult + unstructured Alert/LogEvent: smn-telemetry::record)".into(),
        ],
        vec![
            "Outputs".into(),
            "Actions (e.g., add FIB entry)".into(),
            "Actions + Process Changes (Feedback::{RouteIncident, ProvisionCapacity, RetuneModulation, InformTeam})".into(),
        ],
        vec![
            "APIs".into(),
            "OpenFlow, P4".into(),
            "Uniform-schema catalog (smn-datalake::catalog)".into(),
        ],
        vec![
            "Enabling Technologies".into(),
            "NoSQL, Compilers, Optimization".into(),
            "Data Lakes (smn-datalake), ML (smn-ml RandomForest), coarsening (smn-core)".into(),
        ],
        vec![
            "Managed Layers".into(),
            "L2-L3".into(),
            "L1-L7 (OpticalLayer wavelengths through application health metrics)".into(),
        ],
    ];
    println!("Table 1: Comparing SDN to SMN (cells mapped to this implementation)\n");
    println!("{}", smn_bench::render_table(&["Aspect", "SDN", "SMN (implemented as)"], &rows));
}
