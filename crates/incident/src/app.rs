//! The simulated Reddit-like deployment (Figure 3's subject).
//!
//! §5 simulates "560 fine-grained faults (e.g., hypervisor failure, bad
//! timeouts) from the Revelio Incident Dataset with the open-source Reddit
//! application" and identifies "8 'teams' including Network, Application and
//! Infrastructure". The Revelio dataset is not public, so this module builds
//! the closest synthetic equivalent: the open-source Reddit architecture
//! (`HAProxy` front end, app servers in two clusters, memcached, Cassandra,
//! `PostgreSQL`, `RabbitMQ` + workers) deployed on hypervisors behind a firewall
//! and switches, owned by eight teams. The fine-grained dependency graph is
//! ground truth for fault propagation; the CDG derived from it is what the
//! SMN maintains.

use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::fine::{Component, DependencyKind, FineDepGraph, Layer};
use smn_topology::NodeId;

/// The eight routable teams, in a fixed order (CDG node order follows
/// component insertion order, which follows this).
pub const TEAMS: [&str; 8] = [
    "frontend",
    "application",
    "cache",
    "storage",
    "database",
    "queue",
    "infrastructure",
    "network",
];

/// Index of a team name in [`TEAMS`].
#[must_use]
pub fn team_index(name: &str) -> Option<usize> {
    TEAMS.iter().position(|&t| t == name)
}

/// The simulated deployment: fine dependency graph, derived CDG, and the
/// two application-server clusters that probe each other.
#[derive(Debug, Clone)]
pub struct RedditDeployment {
    /// Ground-truth fine-grained dependency graph.
    pub fine: FineDepGraph,
    /// The coarse dependency graph the SMN maintains (derived here; in
    /// production it would be sketched by engineers).
    pub cdg: CoarseDepGraph,
    /// Names of cluster-1 app servers (probe endpoints).
    pub cluster1: Vec<String>,
    /// Names of cluster-2 app servers (probe endpoints).
    pub cluster2: Vec<String>,
}

impl RedditDeployment {
    /// Build the canonical deployment.
    #[must_use]
    pub fn build() -> RedditDeployment {
        let mut g = FineDepGraph::new();
        let add = |g: &mut FineDepGraph, name: &str, service: &str, team: &str, layer: Layer| {
            g.add_component(Component {
                name: name.into(),
                service: service.into(),
                team: team.into(),
                layer,
            })
        };

        // Frontend team: load balancers.
        let ha1 = add(&mut g, "haproxy-1", "haproxy", "frontend", Layer::Application);
        let ha2 = add(&mut g, "haproxy-2", "haproxy", "frontend", Layer::Application);

        // Application team: reddit app servers, two clusters.
        let app_c1: Vec<NodeId> = (1..=3)
            .map(|i| {
                add(&mut g, &format!("app-c1-{i}"), "reddit-app", "application", Layer::Application)
            })
            .collect();
        let app_c2: Vec<NodeId> = (1..=3)
            .map(|i| {
                add(&mut g, &format!("app-c2-{i}"), "reddit-app", "application", Layer::Application)
            })
            .collect();

        // Cache team: memcached (user profile cache, subreddit cache).
        let mc1 = add(&mut g, "memcached-1", "memcached", "cache", Layer::Platform);
        let mc2 = add(&mut g, "memcached-2", "memcached", "cache", Layer::Platform);

        // Storage team: Cassandra ring.
        let cas: Vec<NodeId> = (1..=3)
            .map(|i| {
                add(&mut g, &format!("cassandra-{i}"), "cassandra", "storage", Layer::Platform)
            })
            .collect();

        // Database team: PostgreSQL primary + replica.
        let pg1 = add(&mut g, "postgres-1", "postgres", "database", Layer::Platform);
        let pg2 = add(&mut g, "postgres-2", "postgres", "database", Layer::Platform);

        // Queue team: RabbitMQ + workers.
        let mq = add(&mut g, "rabbitmq-1", "rabbitmq", "queue", Layer::Platform);
        let wk1 = add(&mut g, "worker-1", "worker", "queue", Layer::Platform);
        let wk2 = add(&mut g, "worker-2", "worker", "queue", Layer::Platform);

        // Infrastructure team: hypervisors.
        let hv: Vec<NodeId> = (1..=4)
            .map(|i| {
                add(
                    &mut g,
                    &format!("hv-{i}"),
                    "hypervisor",
                    "infrastructure",
                    Layer::Infrastructure,
                )
            })
            .collect();

        // Network team: firewall, switches, WAN uplink.
        let fw = add(&mut g, "firewall-1", "firewall", "network", Layer::Network);
        let sw1 = add(&mut g, "switch-1", "switch", "network", Layer::Network);
        let sw2 = add(&mut g, "switch-2", "switch", "network", Layer::Network);
        let wan = add(&mut g, "wan-1", "wan-uplink", "network", Layer::Network);

        use DependencyKind::{Call, Hosting, Network};

        // Call graph: haproxy -> app servers.
        for &ha in &[ha1, ha2] {
            for &a in app_c1.iter().chain(&app_c2) {
                g.add_dependency(ha, a, Call);
            }
        }
        // App servers -> caches, cassandra, postgres, queue.
        for &a in app_c1.iter().chain(&app_c2) {
            g.add_dependency(a, mc1, Call);
            g.add_dependency(a, mc2, Call);
            for &c in &cas {
                g.add_dependency(a, c, Call);
            }
            g.add_dependency(a, pg1, Call);
            g.add_dependency(a, mq, Call);
        }
        // Workers consume the queue and write the database.
        for &w in &[wk1, wk2] {
            g.add_dependency(w, mq, Call);
            g.add_dependency(w, pg1, Call);
        }
        // Replica follows primary; caches warm from the database.
        g.add_dependency(pg2, pg1, Call);
        g.add_dependency(mc1, cas[0], Call); // user-profile cache fills from Cassandra
        g.add_dependency(mc2, pg1, Call); // subreddit cache fills from Postgres

        // Hosting: VMs are spread so each hypervisor hosts components of
        // several teams (anti-affinity placement). A hypervisor fault
        // therefore fans out across many teams, and different hypervisors
        // have broadly similar team-level blast footprints.
        let hosting: &[(NodeId, usize)] = &[
            (ha1, 0),
            (app_c1[0], 0),
            (mc1, 0),
            (cas[0], 0),
            (pg1, 0),
            (ha2, 1),
            (app_c1[1], 1),
            (mc2, 1),
            (cas[1], 1),
            (wk1, 1),
            (app_c1[2], 2),
            (app_c2[0], 2),
            (pg2, 2),
            (mq, 2),
            (cas[2], 3),
            (app_c2[1], 3),
            (app_c2[2], 3),
            (wk2, 3),
        ];
        for &(c, h) in hosting {
            g.add_dependency(c, hv[h], Hosting);
        }

        // Network: hypervisors uplink through switches; cluster-1 side on
        // switch-1, cluster-2 side on switch-2; switches traverse the
        // firewall to reach each other and the WAN.
        g.add_dependency(hv[0], sw1, Network);
        g.add_dependency(hv[1], sw1, Network);
        g.add_dependency(hv[2], sw2, Network);
        g.add_dependency(hv[3], sw2, Network);
        g.add_dependency(sw1, fw, Network);
        g.add_dependency(sw2, fw, Network);
        g.add_dependency(fw, wan, Network);

        let cdg = CoarseDepGraph::from_fine(&g);
        let cluster1 = app_c1.iter().map(|&n| g.component(n).name.clone()).collect();
        let cluster2 = app_c2.iter().map(|&n| g.component(n).name.clone()).collect();
        RedditDeployment { fine: g, cdg, cluster1, cluster2 }
    }

    /// CDG node id of a team.
    ///
    /// # Panics
    /// Panics if the team is unknown.
    #[must_use]
    #[expect(clippy::panic, reason = "documented panicking lookup; callers pass the static TEAMS")]
    pub fn team_node(&self, team: &str) -> NodeId {
        self.cdg.by_name(team).unwrap_or_else(|| panic!("unknown team {team}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_teams_exactly() {
        let d = RedditDeployment::build();
        let mut teams = d.fine.teams();
        teams.sort();
        let mut expected: Vec<String> =
            TEAMS.iter().map(std::string::ToString::to_string).collect();
        expected.sort();
        assert_eq!(teams, expected);
        assert_eq!(d.cdg.len(), 8);
    }

    #[test]
    fn team_index_roundtrip() {
        for (i, t) in TEAMS.iter().enumerate() {
            assert_eq!(team_index(t), Some(i));
        }
        assert_eq!(team_index("nope"), None);
    }

    #[test]
    fn cdg_has_expected_key_edges() {
        let d = RedditDeployment::build();
        let edge =
            |a: &str, b: &str| d.cdg.graph.find_edge(d.team_node(a), d.team_node(b)).is_some();
        assert!(edge("frontend", "application"));
        assert!(edge("application", "cache"));
        assert!(edge("application", "storage"));
        assert!(edge("application", "database"));
        assert!(edge("application", "queue"));
        assert!(edge("cache", "storage")); // memcached fills from cassandra
        assert!(edge("infrastructure", "network"));
        // Nothing depends on frontend except itself.
        assert!(!edge("application", "frontend"));
    }

    #[test]
    fn everything_transitively_depends_on_network() {
        let d = RedditDeployment::build();
        let wan = d.fine.by_name("wan-1").unwrap();
        let radius = d.fine.blast_radius(wan);
        assert_eq!(radius.len(), d.fine.len(), "WAN fault should reach every component");
    }

    #[test]
    fn app_fault_blast_radius_is_limited() {
        let d = RedditDeployment::build();
        let app = d.fine.by_name("app-c1-1").unwrap();
        let radius = d.fine.blast_radius(app);
        // Only haproxy (and itself) depends on an app server.
        let teams: std::collections::HashSet<&str> =
            radius.iter().map(|&id| d.fine.component(id).team.as_str()).collect();
        assert!(teams.contains("frontend"));
        assert!(teams.contains("application"));
        assert!(!teams.contains("storage"));
    }

    #[test]
    fn clusters_are_app_servers() {
        let d = RedditDeployment::build();
        assert_eq!(d.cluster1.len(), 3);
        assert_eq!(d.cluster2.len(), 3);
        for n in d.cluster1.iter().chain(&d.cluster2) {
            assert!(d.fine.by_name(n).is_some());
            assert_eq!(d.fine.component(d.fine.by_name(n).unwrap()).team, "application");
        }
    }

    #[test]
    fn hypervisor_fault_fans_out_across_teams() {
        let d = RedditDeployment::build();
        let hv = d.fine.by_name("hv-2").unwrap();
        let teams: std::collections::HashSet<&str> =
            d.fine.blast_radius(hv).iter().map(|&id| d.fine.component(id).team.as_str()).collect();
        // hv-2 hosts haproxy-2, app-c1-3, memcached-1, cassandra-1 — the
        // fan-out confounder the paper describes.
        assert!(teams.len() >= 5, "teams affected: {teams:?}");
    }
}
