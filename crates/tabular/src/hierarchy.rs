//! A parent-category ontology over the 78 semantic types.
//!
//! Section 6 of the paper ("Exploiting type hierarchy through ontology")
//! observes that many of the 78 flat types have natural parent classes —
//! `country` and `city` are kinds of *location*, `club` and `company` are
//! kinds of *organisation* — and that a hierarchy would both enrich
//! downstream use and enable partial credit for near-miss predictions. The
//! paper leaves this as future work; this module implements the ontology and
//! the evaluation crate adds hierarchy-aware metrics on top of it.

use crate::types::SemanticType;

/// Coarse parent categories of the 78 semantic types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeCategory {
    /// Geographic places and place attributes (city, country, region, …).
    Location,
    /// People and person-name-like attributes (name, person, artist, …).
    Person,
    /// Organisations (company, club, publisher, manufacturer, …).
    Organisation,
    /// Quantities and measurements (age, weight, sales, elevation, …).
    Quantity,
    /// Dates, times and durations (year, birthDate, duration, day).
    Temporal,
    /// Categorical labels drawn from small vocabularies (status, gender, …).
    Categorical,
    /// Identifiers, codes and symbols (code, isbn, symbol, command).
    Identifier,
    /// Free text (description, notes, requirement, address).
    Text,
    /// Creative works and media artefacts (album, collection, product, …).
    Work,
}

impl TypeCategory {
    /// All categories.
    pub const ALL: [TypeCategory; 9] = [
        TypeCategory::Location,
        TypeCategory::Person,
        TypeCategory::Organisation,
        TypeCategory::Quantity,
        TypeCategory::Temporal,
        TypeCategory::Categorical,
        TypeCategory::Identifier,
        TypeCategory::Text,
        TypeCategory::Work,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TypeCategory::Location => "location",
            TypeCategory::Person => "person",
            TypeCategory::Organisation => "organisation",
            TypeCategory::Quantity => "quantity",
            TypeCategory::Temporal => "temporal",
            TypeCategory::Categorical => "categorical",
            TypeCategory::Identifier => "identifier",
            TypeCategory::Text => "text",
            TypeCategory::Work => "work",
        }
    }
}

/// The parent category of a semantic type.
pub fn category_of(ty: SemanticType) -> TypeCategory {
    use SemanticType as T;
    use TypeCategory as C;
    match ty {
        // Location-like.
        T::Location
        | T::City
        | T::State
        | T::Country
        | T::County
        | T::Region
        | T::Continent
        | T::BirthPlace
        | T::Origin
        | T::Nationality => C::Location,
        // Person-like.
        T::Name
        | T::Person
        | T::Artist
        | T::Jockey
        | T::Creator
        | T::Director
        | T::Owner
        | T::Operator
        | T::Affiliate
        | T::Sex
        | T::Gender
        | T::Religion
        | T::Education
        | T::Family => C::Person,
        // Organisation-like.
        T::Company
        | T::Manufacturer
        | T::Brand
        | T::Publisher
        | T::Affiliation
        | T::Organisation
        | T::Team
        | T::TeamName
        | T::Club
        | T::Industry => C::Organisation,
        // Quantities and measurements.
        T::Age
        | T::Weight
        | T::Rank
        | T::Ranking
        | T::Sales
        | T::Capacity
        | T::Elevation
        | T::Depth
        | T::Area
        | T::FileSize
        | T::Plays
        | T::Order
        | T::Credit
        | T::Range
        | T::Currency => C::Quantity,
        // Temporal.
        T::Year | T::BirthDate | T::Duration | T::Day => C::Temporal,
        // Categorical short vocabularies.
        T::Type
        | T::Category
        | T::Class
        | T::Classification
        | T::Status
        | T::Result
        | T::Position
        | T::Format
        | T::Language
        | T::Grades
        | T::Service
        | T::Species => C::Categorical,
        // Identifiers.
        T::Code | T::Symbol | T::Isbn | T::Command => C::Identifier,
        // Free text.
        T::Description | T::Notes | T::Requirement | T::Address => C::Text,
        // Creative works / artefacts.
        T::Album | T::Collection | T::Genre | T::Product | T::Component => C::Work,
    }
}

/// Whether two types share a parent category (used for lenient, hierarchy-
/// aware evaluation: predicting `city` for a `birthPlace` column is "close").
pub fn same_category(a: SemanticType, b: SemanticType) -> bool {
    category_of(a) == category_of(b)
}

/// All types belonging to a category.
pub fn types_in_category(category: TypeCategory) -> Vec<SemanticType> {
    SemanticType::ALL
        .iter()
        .copied()
        .filter(|t| category_of(*t) == category)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_has_exactly_one_category() {
        let total: usize = TypeCategory::ALL
            .iter()
            .map(|c| types_in_category(*c).len())
            .sum();
        assert_eq!(total, SemanticType::ALL.len());
    }

    #[test]
    fn paper_examples_are_grouped_as_described() {
        // Section 6: country and city are types of location; club and
        // company are types of organisation.
        assert_eq!(category_of(SemanticType::Country), TypeCategory::Location);
        assert_eq!(category_of(SemanticType::City), TypeCategory::Location);
        assert_eq!(category_of(SemanticType::Club), TypeCategory::Organisation);
        assert_eq!(
            category_of(SemanticType::Company),
            TypeCategory::Organisation
        );
    }

    #[test]
    fn ambiguous_value_pools_map_to_the_same_category() {
        assert!(same_category(SemanticType::City, SemanticType::BirthPlace));
        assert!(same_category(SemanticType::Name, SemanticType::Artist));
        assert!(same_category(SemanticType::Age, SemanticType::Weight));
        assert!(!same_category(SemanticType::City, SemanticType::Sales));
    }

    #[test]
    fn every_category_is_non_empty_and_named() {
        for c in TypeCategory::ALL {
            assert!(!types_in_category(c).is_empty(), "{} is empty", c.name());
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn categories_partition_is_stable_under_round_trip() {
        for t in SemanticType::ALL {
            let c = category_of(t);
            assert!(types_in_category(c).contains(&t));
        }
    }
}
