//! The 14 TPC-W web interactions and their Browse/Order classification.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The two interaction classes of the TPC-W specification.
///
/// An interaction is *Browse* when it only browses or searches the site and
/// *Order* when it plays an explicit role in the ordering process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RequestClass {
    /// Browsing and searching interactions.
    Browse,
    /// Interactions participating in the ordering process.
    Order,
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestClass::Browse => f.write_str("Browse"),
            RequestClass::Order => f.write_str("Order"),
        }
    }
}

/// The 14 TPC-W web interaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RequestType {
    /// The bookstore home page.
    Home,
    /// New-products listing for a subject.
    NewProducts,
    /// Best-sellers listing — the famously heavy top-of-recent-orders
    /// query; dominant contributor to database load in browsing mixes.
    BestSellers,
    /// Product detail page for one item.
    ProductDetail,
    /// Search form.
    SearchRequest,
    /// Search result listing.
    SearchResults,
    /// Shopping-cart display/update.
    ShoppingCart,
    /// Customer registration form processing.
    CustomerRegistration,
    /// Buy request (order form, credit-card entry).
    BuyRequest,
    /// Buy confirmation — order insertion and payment authorization; the
    /// heaviest application-tier interaction.
    BuyConfirm,
    /// Order inquiry form.
    OrderInquiry,
    /// Display of a previous order.
    OrderDisplay,
    /// Administrative item-update form.
    AdminRequest,
    /// Administrative item-update confirmation.
    AdminConfirm,
}

impl RequestType {
    /// All 14 interaction types, in specification order.
    pub const ALL: [RequestType; 14] = [
        RequestType::Home,
        RequestType::NewProducts,
        RequestType::BestSellers,
        RequestType::ProductDetail,
        RequestType::SearchRequest,
        RequestType::SearchResults,
        RequestType::ShoppingCart,
        RequestType::CustomerRegistration,
        RequestType::BuyRequest,
        RequestType::BuyConfirm,
        RequestType::OrderInquiry,
        RequestType::OrderDisplay,
        RequestType::AdminRequest,
        RequestType::AdminConfirm,
    ];

    /// Number of interaction types.
    pub const COUNT: usize = 14;

    /// Dense index in `0..14`, aligned with [`RequestType::ALL`].
    pub fn index(&self) -> usize {
        RequestType::ALL
            .iter()
            .position(|t| t == self)
            .expect("type is in ALL")
    }

    /// Construct from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 14`.
    pub fn from_index(index: usize) -> RequestType {
        RequestType::ALL[index]
    }

    /// The interaction's Browse/Order class per the TPC-W specification.
    pub fn class(&self) -> RequestClass {
        match self {
            RequestType::Home
            | RequestType::NewProducts
            | RequestType::BestSellers
            | RequestType::ProductDetail
            | RequestType::SearchRequest
            | RequestType::SearchResults => RequestClass::Browse,
            RequestType::ShoppingCart
            | RequestType::CustomerRegistration
            | RequestType::BuyRequest
            | RequestType::BuyConfirm
            | RequestType::OrderInquiry
            | RequestType::OrderDisplay
            | RequestType::AdminRequest
            | RequestType::AdminConfirm => RequestClass::Order,
        }
    }
}

impl fmt::Display for RequestType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_types() {
        assert_eq!(RequestType::ALL.len(), RequestType::COUNT);
    }

    #[test]
    fn six_browse_eight_order() {
        let browse = RequestType::ALL
            .iter()
            .filter(|t| t.class() == RequestClass::Browse)
            .count();
        assert_eq!(browse, 6);
        assert_eq!(RequestType::COUNT - browse, 8);
    }

    #[test]
    fn index_round_trips() {
        for (i, t) in RequestType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(RequestType::from_index(i), *t);
        }
    }

    #[test]
    fn display_matches_debug() {
        assert_eq!(RequestType::BestSellers.to_string(), "BestSellers");
        assert_eq!(RequestClass::Browse.to_string(), "Browse");
    }
}
