//! The simulated physical environment: ground plane, obstacles, wind and
//! geofenced regions.
//!
//! The paper's default environment has "no hostile weather or obstacles";
//! that is [`Environment::default`]. Specific experiments (e.g. the fence
//! workload) add keep-out regions, and ablation tests can add wind or
//! obstacles.

use crate::math::Vec3;

/// An axis-aligned box obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxObstacle {
    /// Minimum corner (m).
    pub min: Vec3,
    /// Maximum corner (m).
    pub max: Vec3,
}

impl BoxObstacle {
    /// Creates an obstacle from two opposite corners (order-insensitive).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        BoxObstacle {
            min: Vec3::new(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z)),
            max: Vec3::new(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z)),
        }
    }

    /// Returns `true` if a sphere of `radius` centred at `p` intersects the box.
    pub fn intersects_sphere(&self, p: Vec3, radius: f64) -> bool {
        let cx = p.x.clamp(self.min.x, self.max.x);
        let cy = p.y.clamp(self.min.y, self.max.y);
        let cz = p.z.clamp(self.min.z, self.max.z);
        Vec3::new(cx, cy, cz).distance(p) <= radius
    }
}

/// A geofenced region in the horizontal plane.
///
/// Fences are used both to keep the vehicle *inside* an allowed area and to
/// keep it *out of* restricted airspace (the paper's second workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FenceRegion {
    /// A circular region centred at `center` with the given radius (m).
    Circle {
        /// Centre of the circle (only x/y are used).
        center: Vec3,
        /// Radius in metres.
        radius: f64,
    },
    /// An axis-aligned rectangular region in the horizontal plane.
    Rectangle {
        /// Minimum x/y corner.
        min_x: f64,
        /// Minimum y.
        min_y: f64,
        /// Maximum x.
        max_x: f64,
        /// Maximum y.
        max_y: f64,
    },
}

impl FenceRegion {
    /// Returns `true` if the horizontal projection of `p` lies inside the region.
    pub fn contains(&self, p: Vec3) -> bool {
        match *self {
            FenceRegion::Circle { center, radius } => p.horizontal_distance(center) <= radius,
            FenceRegion::Rectangle {
                min_x,
                min_y,
                max_x,
                max_y,
            } => p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y,
        }
    }
}

/// A geofence with a policy: either the vehicle must stay inside the region
/// (containment) or must stay out of it (exclusion / restricted airspace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fence {
    /// The fenced region.
    pub region: FenceRegion,
    /// If `true`, the region is a keep-out zone; otherwise it is a
    /// containment boundary.
    pub exclusion: bool,
}

impl Fence {
    /// Creates a keep-out (restricted airspace) fence.
    pub fn exclusion(region: FenceRegion) -> Self {
        Fence {
            region,
            exclusion: true,
        }
    }

    /// Creates a containment fence.
    pub fn containment(region: FenceRegion) -> Self {
        Fence {
            region,
            exclusion: false,
        }
    }

    /// Returns `true` if position `p` violates this fence.
    pub fn violated_by(&self, p: Vec3) -> bool {
        if self.exclusion {
            self.region.contains(p)
        } else {
            !self.region.contains(p)
        }
    }
}

/// A simple wind model: a constant mean wind plus a sinusoidal gust.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wind {
    /// Mean wind velocity in the world frame (m/s).
    pub mean: Vec3,
    /// Gust amplitude (m/s), applied along the mean direction.
    pub gust_amplitude: f64,
    /// Gust period (s).
    pub gust_period: f64,
}

impl Default for Wind {
    fn default() -> Self {
        Wind {
            mean: Vec3::ZERO,
            gust_amplitude: 0.0,
            gust_period: 10.0,
        }
    }
}

impl Wind {
    /// Calm conditions (the paper's default environment).
    pub fn calm() -> Self {
        Wind::default()
    }

    /// Steady wind with the given velocity and no gusts.
    pub fn steady(mean: Vec3) -> Self {
        Wind {
            mean,
            ..Default::default()
        }
    }

    /// Evaluates the wind velocity at simulation time `t` seconds.
    pub fn at(&self, t: f64) -> Vec3 {
        if self.gust_amplitude == 0.0 {
            return self.mean;
        }
        let dir = self.mean.normalized().unwrap_or(Vec3::new(1.0, 0.0, 0.0));
        let phase = 2.0 * std::f64::consts::PI * t / self.gust_period.max(1e-3);
        self.mean + dir * (self.gust_amplitude * phase.sin())
    }
}

/// What the vehicle collided with, if anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollisionKind {
    /// Impact with the ground plane above the crash-speed threshold.
    Ground,
    /// Intersection with a static obstacle (index into the obstacle list).
    Obstacle(usize),
}

/// A detected physical collision.
///
/// The paper's safety invariant flags a collision when the vehicle
/// "rapidly (de)accelerates but has the same position as another simulated
/// object, e.g. the ground"; we reproduce that as an impact-speed threshold
/// at the contact point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Collision {
    /// What was hit.
    pub kind: CollisionKind,
    /// Speed at impact (m/s).
    pub impact_speed: f64,
    /// World position at impact.
    pub position: Vec3,
}

/// The simulated world: ground plane, obstacles, fences and wind.
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    obstacles: Vec<BoxObstacle>,
    fences: Vec<Fence>,
    wind: Wind,
    /// Vertical impact speed (m/s) above which ground contact counts as a crash.
    crash_speed_threshold: f64,
    /// Radius of the sphere used to approximate the vehicle body (m).
    vehicle_radius: f64,
    /// Home (launch) position.
    home: Vec3,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            obstacles: Vec::new(),
            fences: Vec::new(),
            wind: Wind::calm(),
            crash_speed_threshold: 2.0,
            vehicle_radius: 0.3,
            home: Vec3::ZERO,
        }
    }
}

impl Environment {
    /// The paper's default test environment: flat ground, no obstacles, no
    /// hostile weather.
    pub fn open_field() -> Self {
        Environment::default()
    }

    /// Adds a box obstacle and returns `self` for chaining.
    pub fn with_obstacle(mut self, obstacle: BoxObstacle) -> Self {
        self.obstacles.push(obstacle);
        self
    }

    /// Adds a fence and returns `self` for chaining.
    pub fn with_fence(mut self, fence: Fence) -> Self {
        self.fences.push(fence);
        self
    }

    /// Sets the wind model and returns `self` for chaining.
    pub fn with_wind(mut self, wind: Wind) -> Self {
        self.wind = wind;
        self
    }

    /// Sets the home (launch) position and returns `self` for chaining.
    pub fn with_home(mut self, home: Vec3) -> Self {
        self.home = home;
        self
    }

    /// The configured obstacles.
    pub fn obstacles(&self) -> &[BoxObstacle] {
        &self.obstacles
    }

    /// The configured fences.
    pub fn fences(&self) -> &[Fence] {
        &self.fences
    }

    /// The wind model.
    pub fn wind(&self) -> &Wind {
        &self.wind
    }

    /// The home (launch) position.
    pub fn home(&self) -> Vec3 {
        self.home
    }

    /// Impact speed above which ground contact is a crash (m/s).
    pub fn crash_speed_threshold(&self) -> f64 {
        self.crash_speed_threshold
    }

    /// Overrides the crash-speed threshold.
    pub fn set_crash_speed_threshold(&mut self, threshold: f64) {
        self.crash_speed_threshold = threshold.max(0.0);
    }

    /// Checks for a collision given the position and velocity at the moment
    /// the vehicle (re)contacts the ground or intersects an obstacle.
    ///
    /// `was_airborne` should be `true` if the vehicle was off the ground on
    /// the previous step; a vehicle that is already resting on the ground is
    /// not repeatedly reported as colliding.
    pub fn check_collision(
        &self,
        position: Vec3,
        velocity: Vec3,
        was_airborne: bool,
    ) -> Option<Collision> {
        // Obstacle intersection is a collision regardless of speed.
        for (i, obs) in self.obstacles.iter().enumerate() {
            if obs.intersects_sphere(position, self.vehicle_radius) {
                return Some(Collision {
                    kind: CollisionKind::Obstacle(i),
                    impact_speed: velocity.norm(),
                    position,
                });
            }
        }
        // Ground impact: only when transitioning from airborne to ground
        // contact faster than the crash threshold.
        if was_airborne && position.z <= self.vehicle_radius * 0.1 {
            let impact_speed = velocity.norm();
            if -velocity.z >= self.crash_speed_threshold {
                return Some(Collision {
                    kind: CollisionKind::Ground,
                    impact_speed,
                    position,
                });
            }
        }
        None
    }

    /// Returns the indices of fences violated at `position`.
    pub fn violated_fences(&self, position: Vec3) -> Vec<usize> {
        let mut indices = Vec::new();
        self.violated_fences_into(position, &mut indices);
        indices
    }

    /// Appends the indices of fences violated at `position` to `indices`
    /// (which the caller clears between steps), avoiding the per-step
    /// allocation of [`Environment::violated_fences`].
    pub fn violated_fences_into(&self, position: Vec3, indices: &mut Vec<usize>) {
        for (i, fence) in self.fences.iter().enumerate() {
            if fence.violated_by(position) {
                indices.push(i);
            }
        }
    }
}

impl Collision {
    /// Serialises the collision record for the persistent store.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        match self.kind {
            CollisionKind::Ground => w.u8(0),
            CollisionKind::Obstacle(index) => {
                w.u8(1);
                w.usize(index);
            }
        }
        w.f64(self.impact_speed);
        self.position.encode(w);
    }

    /// Restores a collision serialised by [`Collision::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> crate::codec::CodecResult<Collision> {
        let kind = match r.u8()? {
            0 => CollisionKind::Ground,
            1 => CollisionKind::Obstacle(r.usize()?),
            _ => return Err(crate::codec::CodecError::Malformed("collision kind tag")),
        };
        Ok(Collision {
            kind,
            impact_speed: r.f64()?,
            position: Vec3::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_obstacle_sphere_intersection() {
        let obs = BoxObstacle::new(Vec3::new(5.0, 5.0, 0.0), Vec3::new(6.0, 6.0, 10.0));
        assert!(obs.intersects_sphere(Vec3::new(5.5, 5.5, 5.0), 0.3));
        assert!(obs.intersects_sphere(Vec3::new(4.8, 5.5, 5.0), 0.3));
        assert!(!obs.intersects_sphere(Vec3::new(4.0, 5.5, 5.0), 0.3));
        // Corner ordering does not matter.
        let obs2 = BoxObstacle::new(Vec3::new(6.0, 6.0, 10.0), Vec3::new(5.0, 5.0, 0.0));
        assert_eq!(obs, obs2);
    }

    #[test]
    fn fence_circle_contains() {
        let region = FenceRegion::Circle {
            center: Vec3::new(10.0, 0.0, 0.0),
            radius: 5.0,
        };
        assert!(region.contains(Vec3::new(12.0, 0.0, 50.0)));
        assert!(!region.contains(Vec3::new(16.0, 0.0, 0.0)));
    }

    #[test]
    fn fence_rectangle_contains() {
        let region = FenceRegion::Rectangle {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 10.0,
            max_y: 20.0,
        };
        assert!(region.contains(Vec3::new(5.0, 10.0, 3.0)));
        assert!(!region.contains(Vec3::new(-1.0, 10.0, 3.0)));
        assert!(!region.contains(Vec3::new(5.0, 21.0, 3.0)));
    }

    #[test]
    fn exclusion_vs_containment_fences() {
        let region = FenceRegion::Circle {
            center: Vec3::ZERO,
            radius: 10.0,
        };
        let keep_out = Fence::exclusion(region);
        let keep_in = Fence::containment(region);
        let inside = Vec3::new(1.0, 1.0, 5.0);
        let outside = Vec3::new(50.0, 0.0, 5.0);
        assert!(keep_out.violated_by(inside));
        assert!(!keep_out.violated_by(outside));
        assert!(!keep_in.violated_by(inside));
        assert!(keep_in.violated_by(outside));
    }

    #[test]
    fn calm_wind_is_zero() {
        let w = Wind::calm();
        assert_eq!(w.at(0.0), Vec3::ZERO);
        assert_eq!(w.at(12.3), Vec3::ZERO);
    }

    #[test]
    fn gusty_wind_oscillates_about_mean() {
        let w = Wind {
            mean: Vec3::new(4.0, 0.0, 0.0),
            gust_amplitude: 2.0,
            gust_period: 8.0,
        };
        let quarter = w.at(2.0); // sin(pi/2) = 1 -> mean + amplitude
        assert!((quarter.x - 6.0).abs() < 1e-9);
        let half = w.at(4.0); // sin(pi) = 0
        assert!((half.x - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ground_collision_requires_airborne_and_speed() {
        let env = Environment::open_field();
        let fast_down = Vec3::new(0.0, 0.0, -5.0);
        let slow_down = Vec3::new(0.0, 0.0, -0.5);
        let ground = Vec3::ZERO;
        assert!(env.check_collision(ground, fast_down, true).is_some());
        assert!(env.check_collision(ground, slow_down, true).is_none());
        // Already on ground: no new collision even at (stale) high speed.
        assert!(env.check_collision(ground, fast_down, false).is_none());
        // In the air: no ground collision.
        assert!(env
            .check_collision(Vec3::new(0.0, 0.0, 10.0), fast_down, true)
            .is_none());
    }

    #[test]
    fn obstacle_collision_detected() {
        let env = Environment::open_field().with_obstacle(BoxObstacle::new(
            Vec3::new(5.0, -1.0, 0.0),
            Vec3::new(6.0, 1.0, 30.0),
        ));
        let c = env
            .check_collision(Vec3::new(5.5, 0.0, 10.0), Vec3::new(3.0, 0.0, 0.0), true)
            .expect("collision");
        assert_eq!(c.kind, CollisionKind::Obstacle(0));
        assert!((c.impact_speed - 3.0).abs() < 1e-9);
    }

    #[test]
    fn violated_fences_lists_indices() {
        let env = Environment::open_field()
            .with_fence(Fence::exclusion(FenceRegion::Circle {
                center: Vec3::new(10.0, 10.0, 0.0),
                radius: 3.0,
            }))
            .with_fence(Fence::containment(FenceRegion::Circle {
                center: Vec3::ZERO,
                radius: 100.0,
            }));
        assert!(env.violated_fences(Vec3::new(0.0, 0.0, 5.0)).is_empty());
        assert_eq!(env.violated_fences(Vec3::new(10.0, 10.0, 5.0)), vec![0]);
        assert_eq!(env.violated_fences(Vec3::new(200.0, 0.0, 5.0)), vec![1]);
    }

    #[test]
    fn builder_chain_accumulates() {
        let env = Environment::open_field()
            .with_obstacle(BoxObstacle::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)))
            .with_obstacle(BoxObstacle::new(
                Vec3::new(2.0, 2.0, 0.0),
                Vec3::new(3.0, 3.0, 1.0),
            ))
            .with_wind(Wind::steady(Vec3::new(1.0, 0.0, 0.0)))
            .with_home(Vec3::new(1.0, 2.0, 0.0));
        assert_eq!(env.obstacles().len(), 2);
        assert_eq!(env.wind().mean, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(env.home(), Vec3::new(1.0, 2.0, 0.0));
    }
}
