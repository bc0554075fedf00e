//! Small, dependency-free 3-D math primitives used by the simulator.
//!
//! The simulator uses an East-North-Up (ENU) world frame: `x` east,
//! `y` north, `z` up. Attitude is represented by unit [`Quat`]ernions
//! rotating vectors from the body frame into the world frame.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component vector of `f64`.
///
/// # Examples
///
/// ```
/// use avis_sim::math::Vec3;
/// let v = Vec3::new(3.0, 4.0, 0.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// East / body-forward component.
    pub x: f64,
    /// North / body-right component.
    pub y: f64,
    /// Up component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// World-frame unit "up" vector.
    pub const UP: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// A vector with every component `v`.
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Returns the Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the squared Euclidean norm (avoids the square root).
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean distance to another point.
    ///
    /// This is the `de` distance used by the invariant monitor in the paper.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (x/y plane) distance to another point.
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns a unit vector in the same direction, or `None` for a
    /// (near-)zero vector.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise clamp of the vector magnitude.
    pub fn clamp_norm(self, max: f64) -> Vec3 {
        debug_assert!(max >= 0.0);
        let n = self.norm();
        if n > max && n > 0.0 {
            self * (max / n)
        } else {
            self
        }
    }

    /// Returns `true` if every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A unit quaternion representing an attitude (body → world rotation).
///
/// # Examples
///
/// ```
/// use avis_sim::math::{Quat, Vec3};
/// // 90° yaw rotates body-x (east) into world-y (north).
/// let q = Quat::from_euler(0.0, 0.0, std::f64::consts::FRAC_PI_2);
/// let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
/// assert!((v.y - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from raw components (not normalized).
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        Quat { w, x, y, z }
    }

    /// Builds a quaternion from roll (about x), pitch (about y) and yaw
    /// (about z) angles in radians, applied in Z-Y-X order.
    pub fn from_euler(roll: f64, pitch: f64, yaw: f64) -> Self {
        let (sr, cr) = (roll * 0.5).sin_cos();
        let (sp, cp) = (pitch * 0.5).sin_cos();
        let (sy, cy) = (yaw * 0.5).sin_cos();
        Quat {
            w: cr * cp * cy + sr * sp * sy,
            x: sr * cp * cy - cr * sp * sy,
            y: cr * sp * cy + sr * cp * sy,
            z: cr * cp * sy - sr * sp * cy,
        }
        .normalized()
    }

    /// Builds a rotation of `angle` radians about the given (unit) axis.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let axis = axis.normalized().unwrap_or(Vec3::UP);
        let (s, c) = (angle * 0.5).sin_cos();
        Quat {
            w: c,
            x: axis.x * s,
            y: axis.y * s,
            z: axis.z * s,
        }
        .normalized()
    }

    /// Returns the (roll, pitch, yaw) Euler angles in radians.
    pub fn to_euler(self) -> (f64, f64, f64) {
        let q = self;
        // roll (x-axis rotation)
        let sinr_cosp = 2.0 * (q.w * q.x + q.y * q.z);
        let cosr_cosp = 1.0 - 2.0 * (q.x * q.x + q.y * q.y);
        let roll = sinr_cosp.atan2(cosr_cosp);
        // pitch (y-axis rotation)
        let sinp = 2.0 * (q.w * q.y - q.z * q.x);
        let pitch = if sinp.abs() >= 1.0 {
            std::f64::consts::FRAC_PI_2.copysign(sinp)
        } else {
            sinp.asin()
        };
        // yaw (z-axis rotation)
        let siny_cosp = 2.0 * (q.w * q.z + q.x * q.y);
        let cosy_cosp = 1.0 - 2.0 * (q.y * q.y + q.z * q.z);
        let yaw = siny_cosp.atan2(cosy_cosp);
        (roll, pitch, yaw)
    }

    /// Returns the yaw (heading) angle in radians: the third angle of
    /// [`Quat::to_euler`], bit for bit, without computing the other two.
    pub fn yaw(self) -> f64 {
        let q = self;
        let siny_cosp = 2.0 * (q.w * q.z + q.x * q.y);
        let cosy_cosp = 1.0 - 2.0 * (q.y * q.y + q.z * q.z);
        siny_cosp.atan2(cosy_cosp)
    }

    /// Quaternion norm.
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns a normalized copy; falls back to identity for degenerate input.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n < 1e-12 || !n.is_finite() {
            Quat::IDENTITY
        } else {
            Quat {
                w: self.w / n,
                x: self.x / n,
                y: self.y / n,
                z: self.z / n,
            }
        }
    }

    /// Conjugate (inverse for unit quaternions).
    pub fn conjugate(self) -> Quat {
        Quat {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Rotates a vector from the body frame to the world frame.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = q * (0, v) * q^-1, expanded for efficiency.
        let u = Vec3::new(self.x, self.y, self.z);
        let s = self.w;
        u * (2.0 * u.dot(v)) + v * (s * s - u.dot(u)) + u.cross(v) * (2.0 * s)
    }

    /// Rotates a vector from the world frame into the body frame.
    pub fn rotate_inverse(self, v: Vec3) -> Vec3 {
        self.conjugate().rotate(v)
    }

    /// Integrates the quaternion by a body angular velocity `omega`
    /// (rad/s) over `dt` seconds, returning the new normalized attitude.
    pub fn integrate(self, omega: Vec3, dt: f64) -> Quat {
        let half_dt = 0.5 * dt;
        let dq = Quat {
            w: 0.0,
            x: omega.x,
            y: omega.y,
            z: omega.z,
        };
        let derivative = self * dq;
        Quat {
            w: self.w + derivative.w * half_dt,
            x: self.x + derivative.x * half_dt,
            y: self.y + derivative.y * half_dt,
            z: self.z + derivative.z * half_dt,
        }
        .normalized()
    }

    /// Returns `true` if every component is finite.
    pub fn is_finite(self) -> bool {
        self.w.is_finite() && self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

/// Hamilton product `self * rhs`.
impl Mul for Quat {
    type Output = Quat;

    fn mul(self, rhs: Quat) -> Quat {
        Quat {
            w: self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            x: self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            y: self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            z: self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        }
    }
}

/// Wraps an angle to the range `(-pi, pi]`.
pub fn wrap_angle(angle: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut a = angle % two_pi;
    if a > std::f64::consts::PI {
        a -= two_pi;
    } else if a <= -std::f64::consts::PI {
        a += two_pi;
    }
    a
}

/// Clamps `value` to `[lo, hi]`.
///
/// # Panics
///
/// Panics in debug builds if `lo > hi`.
pub fn clamp(value: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
    value.max(lo).min(hi)
}

impl Vec3 {
    /// Serialises the vector (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.f64(self.x);
        w.f64(self.y);
        w.f64(self.z);
    }

    /// Restores a vector serialised by [`Vec3::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> crate::codec::CodecResult<Vec3> {
        Ok(Vec3 {
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        })
    }
}

impl Quat {
    /// Serialises the quaternion (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.f64(self.w);
        w.f64(self.x);
        w.f64(self.y);
        w.f64(self.z);
    }

    /// Restores a quaternion serialised by [`Quat::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> crate::codec::CodecResult<Quat> {
        Ok(Quat {
            w: r.f64()?,
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn yaw_is_the_euler_yaw_bit_for_bit() {
        let mut rng = SimRng::seed_from_u64(17);
        for case in 0..4000 {
            let mut draw = || rng.uniform_range(-2.0, 2.0);
            let q = Quat::new(draw(), draw(), draw(), draw());
            let q = if case % 2 == 0 { q.normalized() } else { q };
            assert_eq!(
                q.yaw().to_bits(),
                q.to_euler().2.to_bits(),
                "case {case}: {q:?}"
            );
        }
    }

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn vec3_dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(y.cross(x), Vec3::new(0.0, 0.0, -1.0));
    }

    #[test]
    fn vec3_norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(v.norm(), 13.0);
        assert_eq!(v.norm_squared(), 169.0);
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(1.0, 1.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.horizontal_distance(b), 0.0);
    }

    #[test]
    fn vec3_normalized_handles_zero() {
        assert!(Vec3::ZERO.normalized().is_none());
        let n = Vec3::new(0.0, 0.0, 2.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec3_clamp_norm() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        let c = v.clamp_norm(1.0);
        assert!((c.norm() - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((c.x / c.y - 3.0 / 4.0).abs() < 1e-12);
        // Below the limit, unchanged.
        assert_eq!(v.clamp_norm(10.0), v);
    }

    #[test]
    fn vec3_lerp() {
        let a = Vec3::ZERO;
        let b = Vec3::new(10.0, 0.0, 0.0);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn quat_identity_rotation() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let r = Quat::IDENTITY.rotate(v);
        assert!(r.distance(v) < 1e-12);
    }

    #[test]
    fn quat_yaw_rotation() {
        let q = Quat::from_euler(0.0, 0.0, FRAC_PI_2);
        let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
        assert!((v.x).abs() < 1e-9);
        assert!((v.y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quat_euler_round_trip() {
        let cases = [
            (0.1, -0.2, 0.3),
            (0.0, 0.0, PI - 0.01),
            (-0.5, 0.4, -2.0),
            (0.01, 0.0, 0.0),
        ];
        for (roll, pitch, yaw) in cases {
            let q = Quat::from_euler(roll, pitch, yaw);
            let (r, p, y) = q.to_euler();
            assert!((r - roll).abs() < 1e-9, "roll {roll}");
            assert!((p - pitch).abs() < 1e-9, "pitch {pitch}");
            assert!((y - yaw).abs() < 1e-9, "yaw {yaw}");
        }
    }

    #[test]
    fn quat_rotate_inverse_is_inverse() {
        let q = Quat::from_euler(0.3, -0.4, 1.2);
        let v = Vec3::new(1.0, -2.0, 0.5);
        let back = q.rotate_inverse(q.rotate(v));
        assert!(back.distance(v) < 1e-9);
    }

    #[test]
    fn quat_integration_about_z() {
        // Integrating a constant yaw rate of pi/2 rad/s for 1 s should give
        // roughly a 90 degree heading change.
        let mut q = Quat::IDENTITY;
        let omega = Vec3::new(0.0, 0.0, FRAC_PI_2);
        let dt = 0.001;
        for _ in 0..1000 {
            q = q.integrate(omega, dt);
        }
        assert!((q.yaw() - FRAC_PI_2).abs() < 1e-3, "yaw was {}", q.yaw());
    }

    #[test]
    fn quat_normalized_degenerate_is_identity() {
        let q = Quat::new(0.0, 0.0, 0.0, 0.0).normalized();
        assert_eq!(q, Quat::IDENTITY);
        let q = Quat::new(f64::NAN, 0.0, 0.0, 0.0).normalized();
        assert_eq!(q, Quat::IDENTITY);
    }

    #[test]
    fn wrap_angle_range() {
        assert!((wrap_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(wrap_angle(0.0), 0.0);
        assert!((wrap_angle(2.0 * PI)).abs() < 1e-12);
    }

    #[test]
    fn clamp_works() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }
}
